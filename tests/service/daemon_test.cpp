// EvalDaemon + ServiceClient: lease lifecycle (grant, publish, reclaim,
// re-dispatch), cross-process single-flight parking, the client degradation
// ladder, quarantine over the wire, federation, crash-safe persistence, and
// lease accounting under injected chaos. Every test asserts the one
// invariant the whole service hangs on:
//
//   leases_granted == leases_published + leases_reclaimed + leases_outstanding
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "resilience/budget.hpp"
#include "resilience/fault.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "tuner/eval_cache.hpp"
#include "tuner/evaluator.hpp"
#include "workloads/suite.hpp"

namespace ith {
namespace {

constexpr std::uint64_t kFingerprint = 0xabcdef0123456789ULL;

std::vector<tuner::BenchmarkResult> ok_results(std::uint64_t salt) {
  tuner::BenchmarkResult br;
  br.name = "compress";
  br.running_cycles = 1000 + salt;
  br.total_cycles = 1500 + salt;
  br.compile_cycles = 500;
  return {br};
}

std::vector<tuner::BenchmarkResult> failed_results() {
  tuner::BenchmarkResult br;
  br.name = "compress";
  br.outcome = resilience::EvalOutcome::make_trap(resilience::TrapKind::kInjected, "boom");
  br.attempts = 0;
  return {br};
}

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    socket_ = ::testing::TempDir() + "svc_" + info->name() + ".sock";
    snapshot_ = ::testing::TempDir() + "svc_" + info->name() + ".evc";
    std::remove(socket_.c_str());
    std::remove(snapshot_.c_str());
  }
  void TearDown() override {
    std::remove(socket_.c_str());
    std::remove(snapshot_.c_str());
    std::remove((snapshot_ + ".tmp").c_str());
    std::remove((snapshot_ + ".corrupt").c_str());
  }

  svc::DaemonConfig daemon_config() const {
    svc::DaemonConfig dc;
    dc.socket_path = socket_;
    dc.fingerprint = kFingerprint;
    return dc;
  }

  svc::ClientConfig client_config() const {
    svc::ClientConfig cc;
    cc.socket_path = socket_;
    cc.fingerprint = kFingerprint;
    cc.client_id = 1;
    cc.name = "test-client";
    return cc;
  }

  std::string socket_;
  std::string snapshot_;
};

TEST_F(DaemonTest, MissLeasePublishHit) {
  svc::EvalDaemon daemon(daemon_config());
  daemon.start();
  svc::ServiceClient client(client_config());

  std::uint64_t lease = 0;
  EXPECT_FALSE(client.acquire(42, &lease).has_value());
  EXPECT_NE(lease, 0u);

  client.publish(42, lease, ok_results(0));

  std::uint64_t lease2 = 0;
  const auto hit = client.acquire(42, &lease2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(lease2, 0u);
  EXPECT_EQ(hit->at(0).running_cycles, 1000u);

  daemon.stop();
  const svc::DaemonStats s = daemon.stats();
  EXPECT_EQ(s.leases_granted, 1u);
  EXPECT_EQ(s.leases_published, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_TRUE(s.leases_balanced());
}

TEST_F(DaemonTest, PublishedResultsAreBitIdenticalOverTheWire) {
  svc::EvalDaemon daemon(daemon_config());
  daemon.start();
  svc::ServiceClient client(client_config());

  const std::vector<tuner::BenchmarkResult> original = ok_results(7);
  std::uint64_t lease = 0;
  client.acquire(7, &lease);
  client.publish(7, lease, original);
  const auto served = client.acquire(7, &lease);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(tuner::encode_results(*served), tuner::encode_results(original));
  daemon.stop();
}

TEST_F(DaemonTest, FingerprintMismatchIsFatal) {
  svc::EvalDaemon daemon(daemon_config());
  daemon.start();
  svc::ClientConfig cc = client_config();
  cc.fingerprint = kFingerprint ^ 1;  // different configuration
  svc::ServiceClient client(cc);

  std::uint64_t lease = ~0ull;
  EXPECT_FALSE(client.acquire(42, &lease).has_value());
  EXPECT_EQ(lease, 0u);  // lease 0 = degraded, compute locally
  EXPECT_TRUE(client.fatally_degraded());

  // Fatal is permanent: no further connection attempts, still local-only.
  EXPECT_FALSE(client.acquire(43, &lease).has_value());
  EXPECT_EQ(lease, 0u);

  daemon.stop();
  EXPECT_EQ(daemon.stats().hello_rejects, 1u);
  EXPECT_EQ(daemon.stats().leases_granted, 0u);
}

TEST_F(DaemonTest, SingleFlightParksSecondClient) {
  svc::EvalDaemon daemon(daemon_config());
  daemon.start();
  svc::ServiceClient holder(client_config());

  std::uint64_t lease = 0;
  ASSERT_FALSE(holder.acquire(42, &lease).has_value());
  ASSERT_NE(lease, 0u);

  // A second client asking for the same signature must park server-side
  // (not get a second lease) until the holder publishes.
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    svc::ClientConfig cc = client_config();
    cc.client_id = 2;
    svc::ServiceClient second(cc);
    std::uint64_t l = 0;
    const auto r = second.acquire(42, &l);
    got.store(r.has_value() && r->at(0).running_cycles == 1000);
  });

  // Wait until the daemon has actually parked the waiter, then publish.
  while (daemon.stats().waits == 0) std::this_thread::yield();
  EXPECT_EQ(daemon.stats().leases_granted, 1u);
  holder.publish(42, lease, ok_results(0));
  waiter.join();
  EXPECT_TRUE(got.load());

  daemon.stop();
  const svc::DaemonStats s = daemon.stats();
  EXPECT_EQ(s.waits, 1u);
  EXPECT_EQ(s.leases_granted, 1u);  // single-flight: one lease, not two
  EXPECT_EQ(s.hits, 1u);            // the waiter was answered from the repo
  EXPECT_TRUE(s.leases_balanced());
}

TEST_F(DaemonTest, LeaseReclaimedOnDisconnectAndRedispatched) {
  svc::EvalDaemon daemon(daemon_config());
  daemon.start();

  // Holder takes the lease, then dies without publishing.
  {
    svc::ServiceClient holder(client_config());
    std::uint64_t lease = 0;
    ASSERT_FALSE(holder.acquire(42, &lease).has_value());
    ASSERT_NE(lease, 0u);
  }  // destructor closes the connection -> reclaim

  while (daemon.stats().leases_reclaimed == 0) std::this_thread::yield();

  // The next asker gets a *fresh* lease — the signature is not stuck
  // in-flight behind a dead client.
  svc::ClientConfig cc = client_config();
  cc.client_id = 2;
  svc::ServiceClient second(cc);
  std::uint64_t lease2 = 0;
  EXPECT_FALSE(second.acquire(42, &lease2).has_value());
  EXPECT_NE(lease2, 0u);
  second.publish(42, lease2, ok_results(0));

  daemon.stop();
  const svc::DaemonStats s = daemon.stats();
  EXPECT_EQ(s.leases_granted, 2u);
  EXPECT_EQ(s.leases_reclaimed, 1u);
  EXPECT_EQ(s.leases_published, 1u);
  EXPECT_EQ(s.leases_outstanding, 0u);
  EXPECT_TRUE(s.leases_balanced());
}

TEST_F(DaemonTest, ParkedWaiterClaimsFreshLeaseWhenHolderDies) {
  svc::EvalDaemon daemon(daemon_config());
  daemon.start();

  auto holder = std::make_unique<svc::ServiceClient>(client_config());
  std::uint64_t lease = 0;
  ASSERT_FALSE(holder->acquire(42, &lease).has_value());

  // Park a waiter, then kill the holder: the waiter must be woken and
  // granted its own lease (re-dispatch), not starve.
  std::atomic<std::uint64_t> waiter_lease{~0ull};
  std::thread waiter([&] {
    svc::ClientConfig cc = client_config();
    cc.client_id = 2;
    svc::ServiceClient second(cc);
    std::uint64_t l = 0;
    EXPECT_FALSE(second.acquire(42, &l).has_value());
    waiter_lease.store(l);
    second.publish(42, l, ok_results(0));
  });
  while (daemon.stats().waits == 0) std::this_thread::yield();

  holder.reset();  // disconnect: reclaim fires, waiter wakes
  waiter.join();
  EXPECT_NE(waiter_lease.load(), 0u);
  EXPECT_NE(waiter_lease.load(), ~0ull);

  daemon.stop();
  const svc::DaemonStats s = daemon.stats();
  EXPECT_EQ(s.leases_granted, 2u);
  EXPECT_EQ(s.leases_reclaimed, 1u);
  EXPECT_EQ(s.leases_published, 1u);
  EXPECT_TRUE(s.leases_balanced());
}

TEST_F(DaemonTest, PublishUnderReclaimedLeaseIsUnsolicitedButAdmitted) {
  svc::EvalDaemon daemon(daemon_config());
  daemon.start();
  svc::ServiceClient client(client_config());

  // Publish with lease 0 (the degraded-then-reattached path): admitted,
  // counted unsolicited, completes no lease.
  client.publish(42, 0, ok_results(0));
  std::uint64_t lease = 0;
  const auto hit = client.acquire(42, &lease);
  ASSERT_TRUE(hit.has_value());

  daemon.stop();
  const svc::DaemonStats s = daemon.stats();
  EXPECT_EQ(s.leases_granted, 0u);
  EXPECT_EQ(s.publishes_unsolicited, 1u);
  EXPECT_TRUE(s.leases_balanced());
}

TEST_F(DaemonTest, QuarantineQueryAndReleaseOverTheWire) {
  svc::EvalDaemon daemon(daemon_config());
  daemon.start();
  svc::ServiceClient client(client_config());

  std::uint64_t lease = 0;
  client.acquire(66, &lease);
  client.publish(66, lease, failed_results());

  // The daemon mirrors the evaluator's quarantine rule: a publish with any
  // failed benchmark quarantines the signature.
  EXPECT_EQ(client.query_quarantine(66), std::optional<bool>(true));
  EXPECT_EQ(client.query_quarantine(67), std::optional<bool>(false));

  // Release lifts the quarantine AND drops the penalized entry, so the next
  // acquire is a miss (fresh guarded run) instead of serving the old trap.
  EXPECT_EQ(client.release_quarantine(66), std::optional<bool>(true));
  EXPECT_EQ(client.query_quarantine(66), std::optional<bool>(false));
  EXPECT_EQ(client.release_quarantine(66), std::optional<bool>(false));  // idempotent

  std::uint64_t lease2 = 0;
  EXPECT_FALSE(client.acquire(66, &lease2).has_value());
  EXPECT_NE(lease2, 0u);

  daemon.stop();
}

TEST_F(DaemonTest, QuarantineReleaseRefusedWhileLeased) {
  svc::EvalDaemon daemon(daemon_config());
  daemon.start();
  svc::ServiceClient client(client_config());

  // Take a lease on 66, then land failed results via an *unsolicited*
  // publish (lease 0): 66 is now quarantined while the real lease is still
  // outstanding — exactly the "in flight somewhere" window release must
  // refuse.
  std::uint64_t lease = 0;
  ASSERT_FALSE(client.acquire(66, &lease).has_value());
  ASSERT_NE(lease, 0u);
  client.publish(66, 0, failed_results());
  EXPECT_EQ(client.query_quarantine(66), std::optional<bool>(true));
  EXPECT_EQ(client.release_quarantine(66), std::optional<bool>(false));

  // Completing the lease closes the window; release now succeeds.
  client.publish(66, lease, failed_results());
  EXPECT_EQ(client.release_quarantine(66), std::optional<bool>(true));

  daemon.stop();
  EXPECT_TRUE(daemon.stats().leases_balanced());
}

TEST_F(DaemonTest, ImportFederatesAndRejectsForeignFingerprint) {
  svc::EvalDaemon daemon(daemon_config());
  daemon.start();

  tuner::EvalCacheSnapshot snap;
  snap.fingerprint = kFingerprint;
  snap.entries.push_back({10, ok_results(1)});
  snap.entries.push_back({11, failed_results()});
  snap.quarantined.push_back(11);
  const tuner::SnapshotMergeStats merged = daemon.import_snapshot(snap);
  EXPECT_EQ(merged.added, 2u);

  svc::ServiceClient client(client_config());
  std::uint64_t lease = 0;
  EXPECT_TRUE(client.acquire(10, &lease).has_value());
  EXPECT_EQ(client.query_quarantine(11), std::optional<bool>(true));

  tuner::EvalCacheSnapshot foreign;
  foreign.fingerprint = kFingerprint ^ 2;
  foreign.entries.push_back({12, ok_results(2)});
  EXPECT_THROW(daemon.import_snapshot(foreign), Error);

  daemon.stop();
  EXPECT_EQ(daemon.stats().imports, 1u);
}

TEST_F(DaemonTest, SnapshotPersistsAcrossRestart) {
  svc::DaemonConfig dc = daemon_config();
  dc.snapshot_path = snapshot_;
  {
    svc::EvalDaemon daemon(dc);
    daemon.start();
    svc::ServiceClient client(client_config());
    std::uint64_t lease = 0;
    client.acquire(42, &lease);
    client.publish(42, lease, ok_results(0));
    client.acquire(43, &lease);
    client.publish(43, lease, failed_results());
    daemon.stop();  // graceful: final snapshot
  }

  svc::EvalDaemon reborn(dc);
  reborn.start();  // reloads + federates the snapshot file
  svc::ServiceClient client(client_config());
  std::uint64_t lease = 0;
  EXPECT_TRUE(client.acquire(42, &lease).has_value());
  EXPECT_EQ(client.query_quarantine(43), std::optional<bool>(true));
  reborn.stop();
  EXPECT_EQ(reborn.stats().imports, 1u);
}

TEST_F(DaemonTest, UnchangedRepositoryIsNotSnapshottedAgain) {
  svc::DaemonConfig dc = daemon_config();
  dc.snapshot_path = snapshot_;
  dc.snapshot_every = 1;
  svc::EvalDaemon idle(dc);
  idle.start();
  idle.stop();  // nothing published: no fsync'd write, no file
  EXPECT_EQ(idle.stats().snapshots_written, 0u);
  EXPECT_FALSE(std::ifstream(snapshot_).good());

  svc::EvalDaemon daemon(dc);
  daemon.start();
  svc::ServiceClient client(client_config());
  std::uint64_t lease = 0;
  client.acquire(42, &lease);
  client.publish(42, lease, ok_results(0));  // periodic snapshot fires here
  while (daemon.stats().snapshots_written == 0) std::this_thread::yield();
  daemon.stop();  // the periodic snapshot already holds everything
  EXPECT_EQ(daemon.stats().snapshots_written, 1u);
  EXPECT_TRUE(std::ifstream(snapshot_).good());
}

TEST_F(DaemonTest, KillLosesUnsnapshottedStateButSweepsCleanly) {
  svc::DaemonConfig dc = daemon_config();
  dc.snapshot_path = snapshot_;
  dc.snapshot_every = 1;  // snapshot after every publish
  {
    svc::EvalDaemon daemon(dc);
    daemon.start();
    svc::ServiceClient client(client_config());
    std::uint64_t lease = 0;
    client.acquire(42, &lease);
    client.publish(42, lease, ok_results(0));  // periodic snapshot fires here
    while (daemon.stats().snapshots_written == 0) std::this_thread::yield();
    daemon.kill();  // crash: no final snapshot, socket unlinked
  }

  svc::EvalDaemon reborn(dc);
  reborn.start();
  svc::ServiceClient client(client_config());
  std::uint64_t lease = 0;
  EXPECT_TRUE(client.acquire(42, &lease).has_value());  // survived via periodic snapshot
  reborn.stop();
}

TEST_F(DaemonTest, ClientQueuesPublishesWhileDownAndReattachFlushes) {
  // No daemon yet: the client degrades to local immediately and queues.
  svc::ClientConfig cc = client_config();
  cc.max_attempts = 1;
  svc::ServiceClient client(cc);
  std::uint64_t lease = ~0ull;
  EXPECT_FALSE(client.acquire(42, &lease).has_value());
  EXPECT_EQ(lease, 0u);  // degraded: compute locally, no lease
  client.publish(42, 0, ok_results(0));
  client.publish(43, 0, ok_results(1));
  EXPECT_EQ(client.pending_publishes(), 2u);
  EXPECT_FALSE(client.fatally_degraded());

  // Daemon comes up; an explicit reattach re-federates the queue.
  svc::EvalDaemon daemon(daemon_config());
  daemon.start();
  EXPECT_TRUE(client.reattach());
  EXPECT_EQ(client.pending_publishes(), 0u);

  const auto hit = client.acquire(42, &lease);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->at(0).running_cycles, 1000u);

  daemon.stop();
  const svc::DaemonStats s = daemon.stats();
  EXPECT_EQ(s.publishes_unsolicited, 2u);  // flushed with lease 0
  EXPECT_TRUE(s.leases_balanced());
}

TEST_F(DaemonTest, DaemonStatsServedOverTheWire) {
  svc::EvalDaemon daemon(daemon_config());
  daemon.start();
  svc::ServiceClient client(client_config());
  std::uint64_t lease = 0;
  client.acquire(42, &lease);
  client.publish(42, lease, ok_results(0));

  const auto counters = client.stats();
  ASSERT_TRUE(counters.has_value());
  std::uint64_t granted = ~0ull, published = ~0ull;
  for (const auto& [name, value] : *counters) {
    if (name == "svc.leases_granted") granted = value;
    if (name == "svc.leases_published") published = value;
  }
  EXPECT_EQ(granted, 1u);
  EXPECT_EQ(published, 1u);
  daemon.stop();
}

/// Raw client socket for hostile-peer tests (the real ServiceClient can
/// only speak the protocol correctly).
int raw_connect(const std::string& path, int recv_timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = recv_timeout_ms / 1000;
  tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

/// Completes a valid handshake on a raw fd; returns true on kHelloOk.
bool raw_hello(int fd) {
  svc::HelloMsg hello;
  hello.fingerprint = kFingerprint;
  hello.client_id = 99;
  hello.name = "hostile";
  if (!svc::write_frame(fd, svc::MsgType::kHello, svc::encode_hello(hello))) return false;
  svc::Frame reply;
  return svc::read_frame(fd, &reply) == svc::ReadStatus::kOk &&
         reply.type == svc::MsgType::kHelloOk;
}

TEST_F(DaemonTest, MalformedRequestPayloadDropsConnectionNotDaemon) {
  // A checksummed frame whose payload is garbage for its type (here: an
  // empty kEvalAcquire, which needs a u64 signature) must cost the sender
  // its connection — not std::terminate the daemon and the fleet's cache.
  svc::EvalDaemon daemon(daemon_config());
  daemon.start();

  const int fd = raw_connect(socket_, 2000);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_hello(fd));
  ASSERT_TRUE(svc::write_frame(fd, svc::MsgType::kEvalAcquire, ""));
  svc::Frame got;
  EXPECT_EQ(svc::read_frame(fd, &got), svc::ReadStatus::kClosed);
  ::close(fd);

  // The daemon survived and still serves well-behaved clients.
  svc::ServiceClient client(client_config());
  std::uint64_t lease = 0;
  EXPECT_FALSE(client.acquire(42, &lease).has_value());
  EXPECT_NE(lease, 0u);

  daemon.stop();
  EXPECT_GE(daemon.stats().frames_rejected, 1u);
  EXPECT_TRUE(daemon.stats().leases_balanced());
}

TEST_F(DaemonTest, MalformedHelloDropsConnectionNotDaemon) {
  svc::EvalDaemon daemon(daemon_config());
  daemon.start();

  const int fd = raw_connect(socket_, 2000);
  ASSERT_GE(fd, 0);
  // One byte where a fingerprint + id + name should be: decode_hello throws.
  ASSERT_TRUE(svc::write_frame(fd, svc::MsgType::kHello, std::string("\x01", 1)));
  svc::Frame got;
  EXPECT_EQ(svc::read_frame(fd, &got), svc::ReadStatus::kClosed);
  ::close(fd);

  svc::ServiceClient client(client_config());
  std::uint64_t lease = 0;
  EXPECT_FALSE(client.acquire(42, &lease).has_value());

  daemon.stop();
  EXPECT_GE(daemon.stats().frames_rejected, 1u);
}

TEST_F(DaemonTest, SilentPeerDroppedByHandshakeDeadline) {
  // A peer that connects and never says hello must not pin a daemon thread
  // forever: the handshake deadline closes it from the daemon side.
  svc::DaemonConfig dc = daemon_config();
  dc.handshake_timeout_ms = 100;
  svc::EvalDaemon daemon(dc);
  daemon.start();

  const int fd = raw_connect(socket_, 5000);
  ASSERT_GE(fd, 0);
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0) << "daemon did not hang up on the silent peer";
  ::close(fd);

  daemon.stop();
}

TEST_F(DaemonTest, FinishedConnectionThreadsAreReaped) {
  // A long-lived daemon serving many short connections must not accumulate
  // one dead (joinable) thread per past connection.
  svc::EvalDaemon daemon(daemon_config());
  daemon.start();

  for (int i = 0; i < 5; ++i) {
    svc::ClientConfig cc = client_config();
    cc.client_id = static_cast<std::uint64_t>(i) + 1;
    svc::ServiceClient client(cc);
    std::uint64_t lease = 0;
    client.acquire(42, &lease);
    if (lease != 0) client.publish(42, lease, ok_results(0));
  }  // each destructor disconnects; the accept loop reaps on its next tick

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (daemon.live_connection_threads() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(daemon.live_connection_threads(), 0u);

  daemon.stop();
  EXPECT_EQ(daemon.stats().connections_accepted, 5u);
  EXPECT_TRUE(daemon.stats().leases_balanced());
}

TEST_F(DaemonTest, CorruptSnapshotAtStartIsQuarantinedNotFatal) {
  // A torn/corrupt published snapshot must not make the daemon
  // unrestartable: it is set aside as <path>.corrupt and the daemon starts
  // with an empty repository.
  {
    std::ofstream out(snapshot_, std::ios::binary);
    out << "ITHEVC1 this is not a valid snapshot";
  }

  svc::DaemonConfig dc = daemon_config();
  dc.snapshot_path = snapshot_;
  svc::EvalDaemon daemon(dc);
  daemon.start();  // must not throw
  EXPECT_EQ(daemon.stats().snapshots_quarantined, 1u);
  EXPECT_FALSE(std::ifstream(snapshot_).good()) << "corrupt file left in the restart path";
  EXPECT_TRUE(std::ifstream(snapshot_ + ".corrupt").good()) << "corrupt file not preserved";

  // The daemon is healthy: serve, publish, and snapshot over the bad file's
  // old path on graceful stop, after which a restart loads clean.
  svc::ServiceClient client(client_config());
  std::uint64_t lease = 0;
  EXPECT_FALSE(client.acquire(42, &lease).has_value());
  client.publish(42, lease, ok_results(0));
  daemon.stop();

  svc::EvalDaemon reborn(dc);
  reborn.start();
  EXPECT_EQ(reborn.stats().snapshots_quarantined, 0u);
  svc::ServiceClient again(client_config());
  EXPECT_TRUE(again.acquire(42, &lease).has_value());
  reborn.stop();
}

TEST_F(DaemonTest, LeasesBalanceUnderInjectedChaos) {
  // Heavy deterministic chaos on every service site. Clients run a fixed
  // acquire/compute/publish workload; whatever the faults do, the ledger
  // must balance and the daemon must never wedge.
  svc::DaemonConfig dc = daemon_config();
  dc.faults.rate = 0.3;
  dc.faults.seed = 1234;
  dc.faults.sites = resilience::FaultPlan::service_sites();
  dc.snapshot_path = snapshot_;
  dc.snapshot_every = 2;
  svc::EvalDaemon daemon(dc);
  daemon.start();

  std::vector<std::thread> threads;
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&, c] {
      svc::ClientConfig cc = client_config();
      cc.client_id = static_cast<std::uint64_t>(c) + 1;
      cc.max_attempts = 2;
      svc::ServiceClient client(cc);
      for (std::uint64_t sig = 1; sig <= 20; ++sig) {
        std::uint64_t lease = 0;
        const auto hit = client.acquire(sig, &lease);
        if (!hit.has_value()) client.publish(sig, lease, ok_results(sig));
      }
      client.reattach();  // flush anything queued while degraded
    });
  }
  for (std::thread& t : threads) t.join();

  daemon.stop();
  const svc::DaemonStats s = daemon.stats();
  EXPECT_GT(s.faults_injected, 0u) << "chaos config injected nothing";
  EXPECT_TRUE(s.leases_balanced())
      << "granted=" << s.leases_granted << " published=" << s.leases_published
      << " reclaimed=" << s.leases_reclaimed << " outstanding=" << s.leases_outstanding;
  EXPECT_EQ(s.leases_outstanding, 0u) << "leaked leases after all clients disconnected";

  // The periodic snapshots (whichever survived injection) must reload clean.
  svc::EvalDaemon reborn(dc);
  reborn.start();
  reborn.stop();
}

TEST_F(DaemonTest, ServedTracesLetAClientReplayAnEquivalentCandidate) {
  // Two evaluators share one daemon keyed by parameter vector. Under Adapt
  // a served result carries its compile trace, so the second client, once
  // served P1, resolves an equivalent P2 by walking its own trie: no run,
  // no daemon round trip.
  std::vector<wl::Workload> suite;
  suite.push_back(wl::make_workload("db"));
  const tuner::EvalConfig plain;
  svc::DaemonConfig dc = daemon_config();
  dc.fingerprint = tuner::SuiteEvaluator(suite, plain).cache_fingerprint();
  svc::EvalDaemon daemon(dc);
  daemon.start();

  heur::InlineParams p1 = heur::default_params();
  p1.callee_max_size += 1;
  heur::InlineParams p2 = p1;
  p2.max_inline_depth += 1;  // deeper than db's call graph: decisions unchanged

  svc::ClientConfig cc = client_config();
  cc.fingerprint = dc.fingerprint;
  svc::ServiceClient first_client(cc);
  tuner::EvalConfig first_config = plain;
  first_config.backend = &first_client;
  tuner::SuiteEvaluator first(suite, first_config);
  const tuner::SuiteEvaluator::Results want = first.evaluate(p1);
  ASSERT_EQ(first.benchmark_runs(), 1u);
  ASSERT_NE((*want)[0].trace, nullptr);

  cc.client_id = 2;
  svc::ServiceClient second_client(cc);
  tuner::EvalConfig second_config = plain;
  second_config.backend = &second_client;
  tuner::SuiteEvaluator second(suite, second_config);
  const tuner::SuiteEvaluator::Results served = second.evaluate(p1);
  EXPECT_EQ(second.benchmark_runs(), 0u);
  EXPECT_EQ(second.evaluations_performed(), 0u);
  ASSERT_NE((*served)[0].trace, nullptr);
  EXPECT_EQ((*served)[0].total_cycles, (*want)[0].total_cycles);
  EXPECT_EQ(second.signature_of(p1), first.signature_of(p1));

  const std::uint64_t requests = daemon.stats().requests;
  const tuner::SuiteEvaluator::Results replayed = second.evaluate(p2);
  EXPECT_EQ(replayed.get(), served.get());  // one run key: one signature
  EXPECT_EQ(second.benchmark_runs(), 0u);
  EXPECT_EQ(second.benchmark_replays(), 1u);
  EXPECT_EQ(daemon.stats().requests, requests);
  daemon.stop();
  EXPECT_TRUE(daemon.stats().leases_balanced());
}

}  // namespace
}  // namespace ith
