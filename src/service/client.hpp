// ServiceClient: the chaos-hardened client side of the evaluation service,
// plugged into a SuiteEvaluator as its EvalBackend.
//
// The client is built so that *no* daemon misbehaviour can make a tuning
// run wrong — only slower. The degradation ladder, top to bottom:
//
//   1. healthy       — acquire() answers from the shared repository, or
//                      returns a lease and the caller computes + publishes.
//   2. retrying      — a request-level failure (kError reply, torn frame,
//                      SO_RCVTIMEO deadline, dead connection) is retried on
//                      a fresh connection, up to max_attempts per request.
//   3. backed off    — after the retry budget, the client *degrades*: the
//                      next 2^k acquire() calls skip the daemon entirely and
//                      evaluate locally (deterministic skip-count backoff,
//                      capped — no wall-clock sleeps, so tests and chaos
//                      replays stay fast and deterministic). Publishes made
//                      while degraded queue up locally.
//   4. re-attached   — when the backoff window expires and a connection
//                      succeeds again, the pending-publish queue is flushed
//                      first (re-federation: everything learned while
//                      degraded lands in the shared repository) before new
//                      acquires resume.
//   5. fatal         — a kHelloReject (configuration fingerprint mismatch)
//                      degrades *permanently*; retrying cannot fix a config
//                      mismatch and mixing results would be wrong.
//
// Correctness under every rung is structural: suite results are a pure
// function of the parameter vector under a fixed fingerprint, so a local
// evaluation and a served result are bit-identical by construction, and the
// tuner's winner cannot depend on which rung the client happened to be on.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/context.hpp"
#include "service/protocol.hpp"
#include "tuner/evaluator.hpp"

namespace ith::svc {

struct ClientConfig {
  std::string socket_path;
  /// Must match the daemon's (== SuiteEvaluator::cache_fingerprint()).
  std::uint64_t fingerprint = 0;
  std::uint64_t client_id = 0;
  std::string name;
  /// Per-request deadline (SO_RCVTIMEO). Must be generous enough to cover a
  /// server-side single-flight park behind another client's suite run; a
  /// deadline that fires merely costs this client a duplicate evaluation.
  int request_timeout_ms = 30'000;
  /// Connection + request attempts before degrading for a backoff window.
  int max_attempts = 3;
  /// Cap on the exponential skip-count backoff (2^k local-only acquires,
  /// k capped so a long outage probes the daemon at a bounded period).
  std::uint64_t max_backoff_skips = 64;
  /// Non-owning, may be null. svc.client_* counters.
  obs::Context* obs = nullptr;
};

class ServiceClient final : public tuner::EvalBackend {
 public:
  explicit ServiceClient(ClientConfig config);
  ~ServiceClient() override;

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  // EvalBackend: never throws; every failure mode collapses to "compute
  // locally" (acquire -> nullopt / lease 0) or "queue for later" (publish).
  std::optional<std::vector<tuner::BenchmarkResult>> acquire(std::uint64_t key,
                                                             std::uint64_t* lease) override;
  void publish(std::uint64_t key, std::uint64_t lease,
               const std::vector<tuner::BenchmarkResult>& results) override;

  /// Asks the daemon whether `key` is quarantined. nullopt = unreachable.
  std::optional<bool> query_quarantine(std::uint64_t key);
  /// Asks the daemon to lift the quarantine on `key` (the cross-process
  /// face of SuiteEvaluator::release_quarantine). Returns whether the
  /// daemon actually released it; nullopt = unreachable.
  std::optional<bool> release_quarantine(std::uint64_t key);
  /// Daemon-side svc.* counter snapshot. nullopt = unreachable.
  std::optional<std::vector<std::pair<std::string, std::uint64_t>>> stats();

  /// True once a fingerprint mismatch permanently degraded this client.
  bool fatally_degraded() const;
  /// Publishes queued while degraded and not yet re-federated.
  std::size_t pending_publishes() const;
  /// Attempts to connect and flush the pending queue right now, ignoring
  /// any backoff window (used after a known daemon restart).
  bool reattach();

 private:
  struct Pending {
    std::uint64_t signature = 0;
    std::vector<tuner::BenchmarkResult> results;
  };

  /// Ensures a live, hello'd connection; returns false (and counts a
  /// failure) when the daemon is unreachable or rejects the hello. Caller
  /// holds mu_.
  bool ensure_connected_locked();
  /// One request/response round trip on the live connection. Returns
  /// nullopt and tears the connection down on any transport failure.
  /// Caller holds mu_.
  std::optional<Frame> round_trip_locked(MsgType type, const std::string& payload);
  /// Like round_trip_locked but retries on a fresh connection up to
  /// max_attempts, entering backoff when the budget is exhausted.
  std::optional<Frame> request_locked(MsgType type, const std::string& payload);
  void disconnect_locked();
  void note_failure_locked();
  void note_success_locked();
  /// Re-federation: drains the pending-publish queue onto a live
  /// connection. Caller holds mu_ and has already connected.
  void flush_pending_locked();
  bool in_backoff_locked();
  void bump(const char* name, std::uint64_t delta = 1);

  ClientConfig config_;
  mutable std::mutex mu_;
  int fd_ = -1;
  bool fatal_ = false;
  int consecutive_failures_ = 0;
  std::uint64_t skip_remaining_ = 0;
  std::vector<Pending> pending_;
};

}  // namespace ith::svc
