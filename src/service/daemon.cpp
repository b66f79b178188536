#include "service/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "support/error.hpp"

namespace ith::svc {

namespace {

/// True when any benchmark in the vector failed — the daemon mirrors the
/// evaluator's quarantine rule so QuarantineQuery answers match what a
/// local SuiteEvaluator would have concluded from the same results.
bool any_failed(const std::vector<tuner::BenchmarkResult>& results) {
  for (const tuner::BenchmarkResult& br : results) {
    if (!br.outcome.ok()) return true;
  }
  return false;
}

/// SO_RCVTIMEO in milliseconds; 0 disables the deadline (block forever).
void set_recv_timeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

}  // namespace

EvalDaemon::EvalDaemon(DaemonConfig config) : config_(std::move(config)) {}

EvalDaemon::~EvalDaemon() { kill(); }

void EvalDaemon::bump(const char* name, std::uint64_t delta) {
  if (config_.obs != nullptr) config_.obs->counter(name).add(delta);
}

void EvalDaemon::start() {
  ITH_CHECK(!running_.load(), "evaluation daemon already running");
  ITH_CHECK(!config_.socket_path.empty(), "evaluation daemon needs a socket path");

  if (!config_.snapshot_path.empty()) {
    // A stale tmp from a crashed save is swept even if no published
    // snapshot exists yet (load_eval_cache would sweep it too, but only
    // when the published file is there to load).
    tuner::remove_stale_eval_cache_tmp(config_.snapshot_path);
    if (std::ifstream(config_.snapshot_path).good()) {
      try {
        import_snapshot(tuner::load_eval_cache(config_.snapshot_path));
      } catch (const Error&) {
        // A corrupt (or foreign-fingerprint) published snapshot must not
        // make the daemon unrestartable: set the file aside — preserved for
        // post-mortem, out of the restart path — and start with an empty
        // repository. Clients re-federate their local caches on attach, so
        // warmth recovers; a wedged fleet would not.
        std::rename(config_.snapshot_path.c_str(),
                    (config_.snapshot_path + ".corrupt").c_str());
        ++stats_.snapshots_quarantined;
        bump("svc.snapshots_quarantined");
      }
    }
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ITH_CHECK(config_.socket_path.size() < sizeof addr.sun_path,
            "socket path too long: " + config_.socket_path);
  std::memcpy(addr.sun_path, config_.socket_path.c_str(), config_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ITH_CHECK(listen_fd_ >= 0, "cannot create daemon socket");
  ::unlink(config_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("cannot bind daemon socket: " + config_.socket_path);
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
    throw Error("cannot listen on daemon socket: " + config_.socket_path);
  }

  stopping_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void EvalDaemon::accept_loop() {
  while (!stopping_.load()) {
    reap_finished_connections();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int n = ::poll(&pfd, 1, 100);
    if (n <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    std::uint64_t conn_id = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conn_id = ++next_conn_id_;
      ++stats_.connections_accepted;
    }
    bump("svc.connections");

    if (config_.faults.should_inject(resilience::FaultSite::kSvcAccept, conn_id)) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.connections_dropped;
        ++stats_.faults_injected;
      }
      bump("svc.faults_injected");
      ::close(fd);
      continue;
    }

    std::lock_guard<std::mutex> lock(mu_);
    conn_fds_.emplace(conn_id, fd);
    conn_threads_.emplace(conn_id,
                          std::thread([this, fd, conn_id] { serve_connection(fd, conn_id); }));
  }
}

void EvalDaemon::reap_finished_connections() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::uint64_t id : done_conns_) {
      const auto it = conn_threads_.find(id);
      if (it != conn_threads_.end()) {
        finished.push_back(std::move(it->second));
        conn_threads_.erase(it);
      }
    }
    done_conns_.clear();
  }
  // These threads announced they are done serving, so each join returns as
  // soon as the thread finishes its last few instructions — this never
  // blocks the accept loop behind a live connection.
  for (std::thread& t : finished) t.join();
}

void EvalDaemon::serve_connection(int fd, std::uint64_t conn_id) {
  // Handshake: the client must present the configuration fingerprint before
  // anything else — a mismatched client is told so (kHelloReject means "do
  // not retry") and dropped. Until the hello completes the connection is
  // unauthenticated, so it gets a receive deadline: a peer that connects
  // and sends nothing (or half a frame) is dropped instead of pinning this
  // thread in recv forever.
  set_recv_timeout(fd, config_.handshake_timeout_ms);
  Frame frame;
  bool ok = false;
  if (read_frame(fd, &frame) == ReadStatus::kOk && frame.type == MsgType::kHello) {
    HelloMsg hello;
    bool decoded = false;
    try {
      hello = decode_hello(frame.payload);
      decoded = true;
    } catch (const Error&) {
      // Checksummed but malformed: the payload arrived as the client sent
      // it, the client is just speaking nonsense. Drop it, not the daemon.
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.frames_rejected;
    }
    if (decoded && hello.fingerprint == config_.fingerprint) {
      std::uint64_t population = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        population = repo_.size();
      }
      ok = write_frame(fd, MsgType::kHelloOk, encode_u64(population));
    } else if (decoded) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.hello_rejects;
      }
      bump("svc.hello_rejects");
      write_frame(fd, MsgType::kHelloReject, encode_u64(config_.fingerprint));
    }
  }
  // Authenticated clients may legitimately go quiet for a whole suite
  // evaluation while holding a lease; disconnects still wake recv with EOF,
  // so the post-handshake read blocks without a deadline.
  if (ok) set_recv_timeout(fd, 0);

  std::uint64_t seq = 0;
  while (ok && !stopping_.load()) {
    const ReadStatus rs = read_frame(fd, &frame);
    if (rs != ReadStatus::kOk) {
      if (rs == ReadStatus::kError) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.frames_rejected;
      }
      break;
    }
    ++seq;
    if (config_.faults.should_inject(resilience::FaultSite::kSvcRead,
                                     resilience::mix_keys(conn_id, seq))) {
      // The injected failure mode is "this frame arrived torn": the framing
      // layer's only safe recovery from a torn stream is to drop the
      // connection, so that is what the client experiences.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.frames_rejected;
        ++stats_.faults_injected;
      }
      bump("svc.faults_injected");
      break;
    }
    if (!handle_frame(fd, conn_id, seq, frame)) break;
  }

  reclaim_leases(conn_id);
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn_fds_.erase(conn_id);
    done_conns_.push_back(conn_id);  // accept loop joins this thread
  }
  ::close(fd);
}

bool EvalDaemon::reply(int fd, std::uint64_t conn_id, std::uint64_t seq, MsgType type,
                       const std::string& payload) {
  if (config_.faults.should_inject(resilience::FaultSite::kSvcWrite,
                                   resilience::mix_keys(conn_id, ~seq))) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.faults_injected;
    }
    bump("svc.faults_injected");
    return false;  // response never sent; connection dies, client retries
  }
  return write_frame(fd, type, payload);
}

bool EvalDaemon::handle_frame(int fd, std::uint64_t conn_id, std::uint64_t seq,
                              const Frame& frame) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
  }
  bump("svc.requests");

  // The frame checksum only proves the payload arrived as sent — a buggy or
  // hostile client can still send a malformed one. Every decode below is
  // guarded: a decode throw drops the connection, never the daemon (an
  // uncaught exception on this thread would std::terminate the fleet's
  // shared cache).
  const auto malformed = [this] {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.frames_rejected;
    return false;
  };

  switch (frame.type) {
    case MsgType::kEvalAcquire: {
      std::uint64_t sig = 0;
      try {
        sig = decode_u64(frame.payload);
      } catch (const Error&) {
        return malformed();
      }
      if (config_.faults.should_inject(resilience::FaultSite::kSvcDispatch, sig ^ seq)) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.faults_injected;
        }
        bump("svc.faults_injected");
        return reply(fd, conn_id, seq, MsgType::kError, "injected dispatch fault");
      }

      // Resolve the signature against the repository and the lease table.
      // The wait in the middle is the cross-process single-flight: this
      // connection parks until the leaseholder publishes (-> result) or
      // disconnects (-> this waiter may claim a fresh lease: re-dispatch).
      std::unique_lock<std::mutex> lock(mu_);
      bool counted_wait = false;
      while (!stopping_.load()) {
        const auto hit = repo_.find(sig);
        if (hit != repo_.end()) {
          ++stats_.hits;
          ResultsMsg msg;
          msg.signature = sig;
          msg.results = hit->second;
          lock.unlock();
          bump("svc.hits");
          return reply(fd, conn_id, seq, MsgType::kEvalResult, encode_results_msg(msg));
        }
        if (leases_.find(sig) == leases_.end()) {
          const std::uint64_t lease_id = next_lease_id_++;
          leases_[sig] = Lease{lease_id, conn_id};
          ++stats_.leases_granted;
          ++stats_.leases_outstanding;
          lock.unlock();
          bump("svc.leases_granted");
          return reply(fd, conn_id, seq, MsgType::kEvalLease,
                       encode_u64_pair(sig, lease_id));
        }
        if (!counted_wait) {
          counted_wait = true;
          ++stats_.waits;
          bump("svc.waits");
        }
        cv_.wait(lock);
      }
      lock.unlock();
      return reply(fd, conn_id, seq, MsgType::kError, "daemon stopping");
    }

    case MsgType::kEvalPublish: {
      ResultsMsg msg;
      try {
        msg = decode_results_msg(frame.payload);
      } catch (const Error&) {
        return malformed();
      }
      bool added = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        const auto lease = leases_.find(msg.signature);
        if (lease != leases_.end() && lease->second.id == msg.lease_id) {
          leases_.erase(lease);
          ++stats_.leases_published;
          --stats_.leases_outstanding;
          bump("svc.leases_published");
        } else {
          // Lease 0, a reclaimed lease, or a lease superseded by
          // re-dispatch: the results are still welcome (they are a pure
          // function of the signature), they just do not complete a lease.
          ++stats_.publishes_unsolicited;
        }
        added = admit_results_locked(msg.signature, msg.results);
        if (!added) ++stats_.publishes_dedup;
      }
      cv_.notify_all();
      maybe_snapshot();
      return reply(fd, conn_id, seq, MsgType::kPublishAck, encode_u64(added ? 1 : 0));
    }

    case MsgType::kQuarantineQuery: {
      std::uint64_t sig = 0;
      try {
        sig = decode_u64(frame.payload);
      } catch (const Error&) {
        return malformed();
      }
      bool quarantined = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        quarantined = quarantine_.count(sig) != 0;
      }
      return reply(fd, conn_id, seq, MsgType::kQuarantineState,
                   encode_u64_pair(sig, quarantined ? 1 : 0));
    }

    case MsgType::kQuarantineRelease: {
      std::uint64_t sig = 0;
      try {
        sig = decode_u64(frame.payload);
      } catch (const Error&) {
        return malformed();
      }
      bool released = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        // Mirrors SuiteEvaluator::release_quarantine: refuse while the
        // signature is leased (in flight somewhere), otherwise lift the
        // quarantine AND drop the penalized entry so the next acquire
        // triggers a fresh guarded run.
        if (leases_.find(sig) == leases_.end() && quarantine_.erase(sig) != 0) {
          repo_.erase(sig);
          ++repo_version_;
          released = true;
        }
      }
      if (released) bump("svc.quarantine_released");
      return reply(fd, conn_id, seq, MsgType::kQuarantineState,
                   encode_u64_pair(sig, released ? 1 : 0));
    }

    case MsgType::kStats: {
      DaemonStats s = stats();
      const std::vector<std::pair<std::string, std::uint64_t>> counters = {
          {"svc.connections", s.connections_accepted},
          {"svc.hits", s.hits},
          {"svc.waits", s.waits},
          {"svc.leases_granted", s.leases_granted},
          {"svc.leases_published", s.leases_published},
          {"svc.leases_reclaimed", s.leases_reclaimed},
          {"svc.leases_outstanding", s.leases_outstanding},
          {"svc.publishes_dedup", s.publishes_dedup},
          {"svc.snapshots_written", s.snapshots_written},
          {"svc.snapshots_quarantined", s.snapshots_quarantined},
          {"svc.faults_injected", s.faults_injected},
      };
      return reply(fd, conn_id, seq, MsgType::kStatsReply, encode_counters(counters));
    }

    default:
      return reply(fd, conn_id, seq, MsgType::kError,
                   std::string("unexpected frame: ") + msg_type_name(frame.type));
  }
}

bool EvalDaemon::admit_results_locked(std::uint64_t sig,
                                      const std::vector<tuner::BenchmarkResult>& results) {
  ++repo_version_;
  if (any_failed(results)) quarantine_.insert(sig);
  const auto it = repo_.find(sig);
  if (it == repo_.end()) {
    repo_.emplace(sig, results);
    return true;
  }
  // Concurrent publishes for one signature (possible after a reclaim) are
  // conflict-resolved with the same deterministic total order federation
  // uses, so the repository converges regardless of arrival order.
  tuner::EvalCacheSnapshot dst;
  dst.entries.push_back({sig, it->second});
  tuner::EvalCacheSnapshot src;
  src.entries.push_back({sig, results});
  tuner::merge_eval_snapshots(dst, src);
  it->second = dst.entries.front().results;
  return false;
}

void EvalDaemon::reclaim_leases(std::uint64_t conn_id) {
  std::size_t reclaimed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = leases_.begin(); it != leases_.end();) {
      if (it->second.conn == conn_id) {
        it = leases_.erase(it);
        ++stats_.leases_reclaimed;
        --stats_.leases_outstanding;
        ++reclaimed;
      } else {
        ++it;
      }
    }
  }
  if (reclaimed > 0) {
    bump("svc.leases_reclaimed", reclaimed);
    // Parked waiters re-check: the first to wake claims a fresh lease.
    cv_.notify_all();
  }
}

void EvalDaemon::maybe_snapshot() {
  if (config_.snapshot_path.empty() || config_.snapshot_every == 0) return;
  bool due = false;
  std::uint64_t counter = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (++publishes_since_snapshot_ >= config_.snapshot_every) {
      publishes_since_snapshot_ = 0;
      counter = ++snapshot_counter_;
      due = true;
    }
  }
  if (!due) return;
  if (config_.faults.should_inject(resilience::FaultSite::kSvcSnapshot, counter)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.snapshots_skipped;
      ++stats_.faults_injected;
    }
    bump("svc.faults_injected");
    return;
  }
  write_snapshot("periodic");
}

void EvalDaemon::write_snapshot(const char* /*why*/) {
  // Serialized: two publishers can both decide a snapshot is due, and
  // save_eval_cache writes through one fixed tmp path — unserialized, their
  // interleaved writes could rename a torn tmp into place as the published
  // snapshot. Holding snapshot_mu_ across the copy too keeps publishes
  // ordered: a later writer can never be overwritten by an earlier, staler
  // repository state.
  std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
  std::uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    version = repo_version_;
  }
  // Unchanged since the last published snapshot: skip the durable write.
  if (version == snapshot_version_) return;
  tuner::EvalCacheSnapshot snap = snapshot();
  try {
    tuner::save_eval_cache(config_.snapshot_path, snap);
  } catch (const Error&) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.snapshots_skipped;
    return;
  }
  snapshot_version_ = version;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.snapshots_written;
  }
  bump("svc.snapshots_written");
}

tuner::EvalCacheSnapshot EvalDaemon::snapshot() const {
  // No params table: clients send signatures, never parameter vectors.
  tuner::EvalCacheSnapshot snap;
  snap.fingerprint = config_.fingerprint;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [sig, results] : repo_) snap.entries.push_back({sig, results});
  snap.quarantined.assign(quarantine_.begin(), quarantine_.end());
  return snap;
}

tuner::SnapshotMergeStats EvalDaemon::import_snapshot(const tuner::EvalCacheSnapshot& snap) {
  tuner::EvalCacheSnapshot dst;
  dst.fingerprint = config_.fingerprint;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [sig, results] : repo_) dst.entries.push_back({sig, results});
  dst.quarantined.assign(quarantine_.begin(), quarantine_.end());

  const tuner::SnapshotMergeStats stats = tuner::merge_eval_snapshots(dst, snap);

  repo_.clear();
  for (const tuner::EvalCacheSnapshot::Entry& e : dst.entries) repo_.emplace(e.signature, e.results);
  quarantine_.clear();
  quarantine_.insert(dst.quarantined.begin(), dst.quarantined.end());
  ++repo_version_;
  ++stats_.imports;
  cv_.notify_all();
  bump("svc.imports");
  return stats;
}

DaemonStats EvalDaemon::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t EvalDaemon::live_connection_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conn_threads_.size();
}

namespace {

void shutdown_fd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

}  // namespace

void EvalDaemon::shutdown_impl(bool final_snapshot) {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  cv_.notify_all();

  shutdown_fd(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();

  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [conn, fd] : conn_fds_) shutdown_fd(fd);
    for (auto& [conn, t] : conn_threads_) threads.push_back(std::move(t));
    conn_threads_.clear();
    done_conns_.clear();
  }
  for (std::thread& t : threads) t.join();

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (final_snapshot && !config_.snapshot_path.empty()) write_snapshot("final");
  ::unlink(config_.socket_path.c_str());
}

void EvalDaemon::stop() { shutdown_impl(/*final_snapshot=*/true); }

void EvalDaemon::kill() {
  // No final snapshot: everything since the last periodic one is lost,
  // which is the crash semantics the chaos fleet mode verifies recovery
  // from. The socket file is still removed so clients fail fast instead of
  // hanging on connect() to a dead listener.
  shutdown_impl(/*final_snapshot=*/false);
}

}  // namespace ith::svc
