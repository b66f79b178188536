// Persistent evaluation cache: serializes an EvalCacheSnapshot (the
// SuiteEvaluator's signature->results map, the quarantine and the params ->
// per-workload keys table) to a single binary file, so a later tuning run
// against the same evaluator configuration starts warm: it skips every
// suite execution it has already paid for and every resolution of a
// parameter vector it has already seen. Format "ITHEVC3", a payload schema
// inside the support/codec.hpp file envelope:
//
//   fingerprint  u64
//   traces       count, then per trace: event count, then per event:
//                method i64, tier u64, hot-site count, hot sites u64
//                (strictly ascending), verdicts
//   entries      count, then per entry: signature u64, results
//   quarantined  count, then one signature u64 each
//   params       count, then per row: InlineParams::kNumParams i64 values,
//                key count, then per key: value u64, exact u64 (0 or 1)
//
// where results is a count and per result: name, running, total and
// compile cycles, outcome kind/budget/trap, detail, attempts, and a trace
// reference (0 = none, k = the k-th trace). The trace table holds each
// distinct trace once, numbered in order of first reference; only Adapt
// results carry traces (they are Adapt's keys, and restore() rebuilds the
// decision tries from them). ITHEVC1 and ITHEVC2 files are not read (their
// magic is rejected, and a tool that finds one starts cold).
//
// The configuration fingerprint inside the snapshot is what makes reuse
// safe: SuiteEvaluator::restore() refuses a snapshot whose fingerprint does
// not match the live evaluator, so a cache recorded under a different
// machine model / scenario / fault plan / workload set can never leak stale
// results into a run.
#pragma once

#include <string>
#include <string_view>

#include "tuner/evaluator.hpp"

namespace ith::tuner {

/// Writes the snapshot to `path` with codec::atomic_write_file: readers see
/// the old cache or the new one, never a torn file. Throws ith::Error on I/O
/// failure.
void save_eval_cache(const std::string& path, const EvalCacheSnapshot& snap);

/// Loads and validates a cache file. Throws ith::Error with a distinct
/// message for each failure mode: unopenable file, bad magic (ITHEVC1 and
/// ITHEVC2 files included), truncation, trailing bytes, checksum mismatch,
/// and a value the bytes alone show is invalid: a params table value or an
/// attempt count out of range, an outcome, budget, trap or tier enum out
/// of range, hot sites not strictly ascending, a trace reference out of
/// order or range, or an unreferenced trace. Method ids are checked against
/// the programs by SuiteEvaluator::restore(). Fingerprint compatibility is *not*
/// checked here — that is SuiteEvaluator::restore()'s job, against the live
/// configuration. A stale `path + ".tmp"` sibling (a partially written save
/// abandoned by a crash) is removed first — rename() already guarantees the
/// published file is whole, so the tmp is garbage by construction.
EvalCacheSnapshot load_eval_cache(const std::string& path);

/// Removes a stale `path + ".tmp"` left behind by a save that died between
/// write and rename. Returns true when one existed. load_eval_cache() calls
/// this itself; exposed so daemons can sweep before their first save too.
bool remove_stale_eval_cache_tmp(const std::string& path);

/// Wire encoding of one suite-run result vector: the traces it references,
/// then count + per-result fields as snapshot entries embed them. The
/// payload encoding the evaluation-service protocol ships per key.
std::string encode_results(const std::vector<BenchmarkResult>& results);

/// Inverse of encode_results. Throws ith::Error on truncation, trailing
/// bytes or any value load_eval_cache refuses.
std::vector<BenchmarkResult> decode_results(std::string_view bytes);

/// Federation: merging two snapshots of the same configuration.
struct SnapshotMergeStats {
  std::size_t added = 0;       ///< signatures only `src` knew
  std::size_t duplicates = 0;  ///< identical entries on both sides
  std::size_t conflicts = 0;   ///< same signature, different results bytes
};

/// Merges `src` into `dst`. Throws ith::Error when the fingerprints differ
/// (results from different configurations must never mix). Only entries
/// and quarantine merge: `dst.params` is left as it is (the daemon, which
/// federates, keeps no params table). Conflicting entries — possible
/// because host wall-clock budget verdicts are timing-dependent — are
/// resolved by a deterministic total order (fewest failed
/// benchmarks first, then smallest encoding), which makes federation
/// commutative and associative: any merge order of any snapshot set yields
/// one canonical cache. `dst`'s entries come out sorted by signature.
SnapshotMergeStats merge_eval_snapshots(EvalCacheSnapshot& dst, const EvalCacheSnapshot& src);

}  // namespace ith::tuner
