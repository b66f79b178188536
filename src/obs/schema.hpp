// Trace-event schema validation: the "small checker" CI runs over every
// uploaded trace. A valid event record is a JSON object with
//
//   name : non-empty string
//   cat  : one of vm|compile|opt|inline|eval|ga  (metadata events exempt)
//   ph   : "X" | "i" | "C" | "M"
//   ts   : number >= 0
//   pid  : 1 (sim cycle domain) or 2 (host microsecond domain)
//   tid  : number >= 0
//   dur  : number >= 0, required iff ph == "X"
//   args : object of string -> number|string (optional)
//
// Counter events ("C") additionally require every arg key to belong to a
// registered counter family (vm. | ga. | sig. | serve. | resil. | eval. |
// opt.pass. | opt.analysis_ | opt.memo_ | svc.) so dashboards
// never silently chart a typo'd counter name. opt.memo_hits / _misses /
// _evictions are the evaluator's body memo (opt/body_memo.hpp);
// eval.bench_runs / eval.bench_reused / eval.bench_replayed count the
// benchmarks its suite evaluations ran, took from the per-benchmark store
// and reused by run-level replay, eval.replay_us / eval.replay_trie_bytes
// what the replay checks cost and what the decision tries hold
// (tuner/decision_trie.hpp), and sig.restored the parameter vectors a
// snapshot restored without a probe (tuner/evaluator.hpp).
//
// trace_report uses the same routine, so "validates in CI" and "parses in
// the report tool" can never drift apart.
#pragma once

#include <optional>
#include <string>

#include "support/json.hpp"

namespace ith::obs {

/// Returns std::nullopt if `record` is a valid trace event, else a
/// human-readable description of the first violation.
std::optional<std::string> validate_event(const JsonValue& record);

}  // namespace ith::obs
