// EvalDaemon: the tuning-as-a-service evaluation coordinator.
//
// One daemon owns the shared key->results repository for a fleet of
// tuning clients. A key is SuiteEvaluator::backend_key, a hash of the
// parameter vector, so the daemon never probes or walks anything: it is an
// opaque-key store with leases. Under Adapt the results it stores and
// serves carry their compile traces, which each client folds into its own
// decision tries. Clients speak the framed protocol in protocol.hpp over a
// unix domain socket; the daemon answers each acquire with either a cached
// result, a *lease* (the caller owns the miss: compute locally, publish
// back), or — when another client already holds the lease — by parking the
// connection server-side until the leaseholder publishes. That park is the
// cross-process single-flight: N clients asking for one uncached key cost
// the fleet exactly one real suite run.
//
// Lease lifecycle invariant (asserted by tests and the fleet CI job):
//
//   leases_granted == leases_published + leases_reclaimed + leases_outstanding
//
// A lease held by a client that disconnects is *reclaimed* on the spot —
// the key becomes un-leased, every parked waiter is woken, and the
// first to wake is granted a fresh lease (re-dispatch). Leases are never
// leaked (no key stays permanently "in flight" for a dead client) and
// never double-counted (a publish under a reclaimed lease id is accepted as
// an unsolicited publish, not a second lease completion).
//
// Persistence: the repository snapshots to an ITHEVC3 file (the evaluator
// cache format, through the same save_eval_cache, published with
// codec::atomic_write_file; its entries are keyed by backend key and its
// params table is empty) every
// `snapshot_every` publishes and once more on graceful stop(), skipping
// any snapshot whose repository has not changed since the last one
// written. kill() simulates a crash — connections die, no final snapshot
// — which is what the chaos fleet mode exercises.
// import_snapshot() federates a foreign snapshot into the live repository
// with the deterministic merge order of tuner::merge_eval_snapshots.
//
// Fault injection: five FaultSite::kSvc* sites (accept, read, write,
// dispatch, snapshot) keyed on stable identities (connection counter,
// (conn, frame seq), key, snapshot counter), so chaos campaigns are
// replayable by seed like every other fault site in the repo.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/context.hpp"
#include "resilience/fault.hpp"
#include "service/protocol.hpp"
#include "tuner/eval_cache.hpp"
#include "tuner/evaluator.hpp"

namespace ith::svc {

struct DaemonConfig {
  /// Path the unix domain socket binds to. Unlinked on bind and on stop.
  std::string socket_path;
  /// Configuration fingerprint clients must present (see
  /// SuiteEvaluator::cache_fingerprint). A mismatching hello is rejected —
  /// results from different configurations must never mix.
  std::uint64_t fingerprint = 0;
  /// ITHEVC3 snapshot file. Empty = no persistence. When the file exists at
  /// start(), it is loaded and federated into the repository.
  std::string snapshot_path;
  /// Publishes between periodic snapshots (0 = only the stop() snapshot).
  std::uint64_t snapshot_every = 8;
  /// SO_RCVTIMEO applied to an accepted connection until its hello
  /// completes: a peer that connects and sends nothing (or half a frame)
  /// is dropped instead of pinning a daemon thread forever. Cleared after
  /// the handshake — an authenticated client may legitimately idle for as
  /// long as a real suite evaluation takes. 0 = no handshake deadline.
  int handshake_timeout_ms = 10'000;
  /// Deterministic infrastructure fault plan (kSvc* sites).
  resilience::FaultPlan faults{};
  /// Non-owning, may be null. svc.* counters and kSvc events.
  obs::Context* obs = nullptr;
};

/// Monotonic daemon statistics. Readable at any time; also mirrored into
/// the obs context's svc.* counters when one is configured.
struct DaemonStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_dropped = 0;  ///< fault-injected accept drops
  std::uint64_t hello_rejects = 0;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;             ///< acquire answered from the repository
  std::uint64_t waits = 0;            ///< acquire parked behind another lease
  std::uint64_t leases_granted = 0;
  std::uint64_t leases_published = 0;
  std::uint64_t leases_reclaimed = 0;
  std::uint64_t leases_outstanding = 0;
  std::uint64_t publishes_unsolicited = 0;  ///< lease 0 / reclaimed-lease publishes
  std::uint64_t publishes_dedup = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t snapshots_skipped = 0;      ///< fault-injected snapshot skips
  std::uint64_t snapshots_quarantined = 0;  ///< corrupt file set aside at start()
  std::uint64_t imports = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t frames_rejected = 0;  ///< torn/corrupt inbound frames

  /// The lease-leak check: true iff every lease ever granted is accounted
  /// for as published, reclaimed, or still legitimately outstanding.
  bool leases_balanced() const {
    return leases_granted == leases_published + leases_reclaimed + leases_outstanding;
  }
};

class EvalDaemon {
 public:
  explicit EvalDaemon(DaemonConfig config);
  ~EvalDaemon();

  EvalDaemon(const EvalDaemon&) = delete;
  EvalDaemon& operator=(const EvalDaemon&) = delete;

  /// Binds the socket, loads + federates `snapshot_path` when present, and
  /// spawns the accept loop. Throws ith::Error when the socket cannot be
  /// bound.
  void start();

  /// Graceful shutdown: stops accepting, wakes every parked waiter, closes
  /// connections, joins threads, writes a final snapshot (unless nothing
  /// changed since the last one), unlinks the socket. Idempotent.
  void stop();

  /// Crash simulation: like stop() but *no* final snapshot — the repository
  /// state since the last periodic snapshot is lost, exactly as a SIGKILL
  /// would lose it. The socket is still unlinked (a dead daemon's socket
  /// file would otherwise make every client connect() hang instead of fail
  /// fast). Idempotent.
  void kill();

  bool running() const { return running_.load(); }

  /// Federates a foreign snapshot into the live repository. Throws
  /// ith::Error on fingerprint mismatch.
  tuner::SnapshotMergeStats import_snapshot(const tuner::EvalCacheSnapshot& snap);

  /// Copy of the live repository as a snapshot (for tests / manual export).
  tuner::EvalCacheSnapshot snapshot() const;

  DaemonStats stats() const;

  /// Connection threads not yet reaped by the accept loop (tests: proves a
  /// long-lived daemon does not accumulate one thread per past connection).
  std::size_t live_connection_threads() const;

  const DaemonConfig& config() const { return config_; }

 private:
  struct Lease {
    std::uint64_t id = 0;
    std::uint64_t conn = 0;  ///< owning connection, for reclaim on disconnect
  };

  void accept_loop();
  void serve_connection(int fd, std::uint64_t conn_id);
  /// Handles one request frame; returns false when the connection must die
  /// (torn stream, injected write fault, peer gone).
  bool handle_frame(int fd, std::uint64_t conn_id, std::uint64_t seq, const Frame& frame);
  bool reply(int fd, std::uint64_t conn_id, std::uint64_t seq, MsgType type,
             const std::string& payload);
  /// Reclaims every lease owned by `conn_id` and wakes parked waiters.
  void reclaim_leases(std::uint64_t conn_id);
  /// Joins connection threads whose serve loop has exited (accept loop
  /// housekeeping, so a long-lived daemon never accumulates dead threads).
  void reap_finished_connections();
  /// Shared stop()/kill() body; `final_snapshot` is the only difference.
  void shutdown_impl(bool final_snapshot);
  /// Accepts a publish into the repository; returns true when it added a
  /// new entry (false = deduplicated/conflict-resolved against an existing
  /// one). Caller holds mu_.
  bool admit_results_locked(std::uint64_t sig, const std::vector<tuner::BenchmarkResult>& results);
  void maybe_snapshot();
  void write_snapshot(const char* why);
  void bump(const char* name, std::uint64_t delta = 1);

  DaemonConfig config_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  std::thread accept_thread_;

  mutable std::mutex mu_;
  /// Serializes write_snapshot(): concurrent publishers may both decide a
  /// snapshot is due, and two unserialized save_eval_cache calls share one
  /// fixed tmp path — interleaved writes could publish a torn file. Ordered
  /// strictly before mu_ (write_snapshot holds it across snapshot()).
  std::mutex snapshot_mu_;
  std::condition_variable cv_;  ///< publish / reclaim / stop wakeups
  std::map<std::uint64_t, std::vector<tuner::BenchmarkResult>> repo_;
  std::set<std::uint64_t> quarantine_;
  std::map<std::uint64_t, Lease> leases_;
  std::uint64_t next_lease_id_ = 1;
  std::uint64_t next_conn_id_ = 0;
  std::uint64_t publishes_since_snapshot_ = 0;
  /// Bumped under mu_ by every repository or quarantine change. A snapshot
  /// records the version it published (under snapshot_mu_), and
  /// write_snapshot() skips when nothing changed since, so an idle daemon
  /// pays no fsync'd write on stop().
  std::uint64_t repo_version_ = 0;
  std::uint64_t snapshot_version_ = 0;
  std::uint64_t snapshot_counter_ = 0;
  DaemonStats stats_;
  std::map<std::uint64_t, std::thread> conn_threads_;
  std::vector<std::uint64_t> done_conns_;  ///< exited serve loops awaiting join
  std::map<std::uint64_t, int> conn_fds_;  ///< live connections, for shutdown
};

}  // namespace ith::svc
