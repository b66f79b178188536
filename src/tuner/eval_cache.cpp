#include "tuner/eval_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "support/codec.hpp"
#include "support/error.hpp"

namespace ith::tuner {

namespace {

constexpr codec::FileFormat kFormat{"ITHEVC3", "evaluation cache"};

/// The encoder's trace table: every distinct trace a set of results points
/// to, numbered 1.. in order of first reference (0 = no trace).
class TraceTable {
 public:
  void add(const std::vector<BenchmarkResult>& results) {
    for (const BenchmarkResult& br : results) {
      if (br.trace != nullptr && index_.emplace(br.trace.get(), order_.size() + 1).second) {
        order_.push_back(br.trace.get());
      }
    }
  }
  std::uint64_t ref(const BenchmarkResult& br) const {
    return br.trace == nullptr ? 0 : index_.at(br.trace.get());
  }

  void write(codec::Writer& w) const {
    w.u64(order_.size());
    for (const CompileTrace* trace : order_) {
      w.u64(trace->size());
      for (const vm::CompileEvent& e : *trace) {
        w.i64(e.method);
        w.u64(static_cast<std::uint64_t>(e.tier));
        w.u64(e.hot_sites.size());
        for (const std::uint64_t site : e.hot_sites) w.u64(site);
        w.str(e.verdicts);
      }
    }
  }

 private:
  std::map<const CompileTrace*, std::uint64_t> index_;
  std::vector<const CompileTrace*> order_;
};

/// The decoder's side: the table's traces, checked for what the bytes
/// alone can show, and the references seen so far. References must come in
/// the order the encoder numbers them and cover the whole table, so
/// whatever decodes re-encodes to the same bytes.
class TraceRefs {
 public:
  void read(codec::Reader& r) {
    for (std::uint64_t t = 0, n = r.count(); t < n; ++t) {
      auto trace = std::make_shared<CompileTrace>();
      for (std::uint64_t k = 0, m = r.count(); k < m; ++k) {
        vm::CompileEvent e;
        const std::int64_t method = r.i64();
        ITH_CHECK(method >= 0 && method <= std::numeric_limits<bc::MethodId>::max(),
                  "evaluation trace method id out of range (corrupted data)");
        e.method = static_cast<bc::MethodId>(method);
        const std::uint64_t tier = r.u64();
        ITH_CHECK(tier <= static_cast<std::uint64_t>(rt::Tier::kOpt),
                  "evaluation trace tier out of range (corrupted data)");
        e.tier = static_cast<rt::Tier>(tier);
        for (std::uint64_t h = 0, sites = r.count(); h < sites; ++h) {
          const std::uint64_t site = r.u64();
          ITH_CHECK(e.hot_sites.empty() || site > e.hot_sites.back(),
                    "evaluation trace hot sites not strictly ascending (corrupted data)");
          e.hot_sites.push_back(site);
        }
        e.verdicts = r.str();
        trace->push_back(std::move(e));
      }
      table_.push_back(std::move(trace));
    }
  }

  std::shared_ptr<const CompileTrace> resolve(std::uint64_t ref) {
    if (ref == 0) return nullptr;
    ITH_CHECK(ref <= used_ + 1 && ref <= table_.size(),
              "evaluation trace reference out of order or range (corrupted data)");
    if (ref == used_ + 1) ++used_;
    return table_[ref - 1];
  }

  void check_all_used() const {
    ITH_CHECK(used_ == table_.size(), "evaluation trace table has unreferenced traces (corrupted data)");
  }

 private:
  std::vector<std::shared_ptr<const CompileTrace>> table_;
  std::uint64_t used_ = 0;
};

void write_results(codec::Writer& w, const std::vector<BenchmarkResult>& results,
                   const TraceTable& traces) {
  w.u64(results.size());
  for (const BenchmarkResult& br : results) {
    w.str(br.name);
    w.u64(br.running_cycles);
    w.u64(br.total_cycles);
    w.u64(br.compile_cycles);
    w.u64(static_cast<std::uint64_t>(br.outcome.kind));
    w.u64(static_cast<std::uint64_t>(br.outcome.budget));
    w.u64(static_cast<std::uint64_t>(br.outcome.trap));
    w.str(br.outcome.detail);
    w.i64(br.attempts);
    w.u64(traces.ref(br));
  }
}

/// Reads an enum stored as a u64 word, refusing values past `last`.
template <typename Enum>
Enum read_enum(codec::Reader& r, Enum last, const char* field) {
  const std::uint64_t raw = r.u64();
  ITH_CHECK(raw <= static_cast<std::uint64_t>(last),
            std::string("evaluation result ") + field + " out of range (corrupted data)");
  return static_cast<Enum>(raw);
}

std::vector<BenchmarkResult> read_results(codec::Reader& r, TraceRefs& traces) {
  std::vector<BenchmarkResult> results;
  for (std::uint64_t j = 0, m = r.count(); j < m; ++j) {
    BenchmarkResult br;
    br.name = r.str();
    br.running_cycles = r.u64();
    br.total_cycles = r.u64();
    br.compile_cycles = r.u64();
    br.outcome.kind = read_enum(r, resilience::OutcomeKind::kCrash, "outcome kind");
    br.outcome.budget = read_enum(r, resilience::BudgetKind::kWallClock, "budget kind");
    br.outcome.trap = read_enum(r, resilience::TrapKind::kRuntime, "trap kind");
    br.outcome.detail = r.str();
    const std::int64_t attempts = r.i64();
    ITH_CHECK(attempts >= 0 && attempts <= std::numeric_limits<int>::max(),
              "evaluation result attempts out of range (corrupted data)");
    br.attempts = static_cast<int>(attempts);
    br.trace = traces.resolve(r.u64());
    results.push_back(std::move(br));
  }
  return results;
}

std::string serialize(const EvalCacheSnapshot& snap) {
  codec::Writer w;
  w.u64(snap.fingerprint);
  TraceTable traces;
  for (const EvalCacheSnapshot::Entry& e : snap.entries) traces.add(e.results);
  traces.write(w);
  w.u64(snap.entries.size());
  for (const EvalCacheSnapshot::Entry& e : snap.entries) {
    w.u64(e.signature);
    write_results(w, e.results, traces);
  }
  w.u64(snap.quarantined.size());
  for (const std::uint64_t sig : snap.quarantined) w.u64(sig);
  w.u64(snap.params.size());
  for (const EvalCacheSnapshot::ParamsKeys& row : snap.params) {
    for (const int v : row.params) w.i64(v);
    w.u64(row.keys.size());
    for (const WorkloadKey& k : row.keys) {
      w.u64(k.value);
      w.u64(k.exact ? 1 : 0);
    }
  }
  return w.bytes();
}

EvalCacheSnapshot deserialize(std::string_view payload) {
  codec::Reader r(payload, kFormat.what);
  EvalCacheSnapshot snap;
  snap.fingerprint = r.u64();
  TraceRefs traces;
  traces.read(r);
  for (std::uint64_t i = 0, n = r.count(); i < n; ++i) {
    EvalCacheSnapshot::Entry e;
    e.signature = r.u64();
    e.results = read_results(r, traces);
    snap.entries.push_back(std::move(e));
  }
  traces.check_all_used();
  for (std::uint64_t i = 0, n = r.count(); i < n; ++i) {
    snap.quarantined.push_back(r.u64());
  }
  for (std::uint64_t i = 0, n = r.count(); i < n; ++i) {
    EvalCacheSnapshot::ParamsKeys row;
    for (int& v : row.params) {
      const std::int64_t raw = r.i64();
      ITH_CHECK(raw >= std::numeric_limits<int>::min() && raw <= std::numeric_limits<int>::max(),
                "evaluation cache parameter out of range (corrupted file)");
      v = static_cast<int>(raw);
    }
    for (std::uint64_t j = 0, m = r.count(); j < m; ++j) {
      WorkloadKey k;
      k.value = r.u64();
      const std::uint64_t exact = r.u64();
      ITH_CHECK(exact <= 1, "evaluation cache key flag is not 0 or 1 (corrupted file)");
      k.exact = exact == 1;
      row.keys.push_back(k);
    }
    snap.params.push_back(std::move(row));
  }
  if (!r.exhausted()) throw Error("evaluation cache has trailing bytes (corrupted file)");
  return snap;
}

/// Number of non-ok outcomes — the first key of the conflict-resolution
/// order, so federation deterministically prefers the run where fewer
/// benchmarks failed (wall-clock verdicts are host-timing-dependent, the
/// one legitimate source of divergent results for one signature).
std::size_t failed_count(const std::vector<BenchmarkResult>& results) {
  std::size_t n = 0;
  for (const BenchmarkResult& br : results) {
    if (!br.outcome.ok()) ++n;
  }
  return n;
}

}  // namespace

void save_eval_cache(const std::string& path, const EvalCacheSnapshot& snap) {
  codec::save_sealed(path, kFormat, serialize(snap));
}

bool remove_stale_eval_cache_tmp(const std::string& path) {
  const std::string tmp = path + ".tmp";
  if (!std::ifstream(tmp).good()) return false;
  return std::remove(tmp.c_str()) == 0;
}

EvalCacheSnapshot load_eval_cache(const std::string& path) {
  // A .tmp sibling means a save died between write and rename. The
  // published file (if any) is still whole — rename is atomic — so the tmp
  // is unreferenced garbage; sweep it rather than letting it accumulate or,
  // worse, be mistaken for a cache by a human operator.
  remove_stale_eval_cache_tmp(path);
  return deserialize(codec::load_sealed(path, kFormat));
}

std::string encode_results(const std::vector<BenchmarkResult>& results) {
  codec::Writer w;
  TraceTable traces;
  traces.add(results);
  traces.write(w);
  write_results(w, results, traces);
  return w.bytes();
}

std::vector<BenchmarkResult> decode_results(std::string_view bytes) {
  codec::Reader r(bytes, kFormat.what);
  TraceRefs traces;
  traces.read(r);
  std::vector<BenchmarkResult> results = read_results(r, traces);
  if (!r.exhausted()) throw Error("evaluation results have trailing bytes");
  traces.check_all_used();
  return results;
}

SnapshotMergeStats merge_eval_snapshots(EvalCacheSnapshot& dst, const EvalCacheSnapshot& src) {
  ITH_CHECK(dst.fingerprint == src.fingerprint,
            "evaluation cache fingerprint mismatch: cannot federate snapshots from different "
            "configurations");
  SnapshotMergeStats stats;

  std::map<std::uint64_t, std::size_t> by_sig;
  for (std::size_t i = 0; i < dst.entries.size(); ++i) by_sig.emplace(dst.entries[i].signature, i);

  for (const EvalCacheSnapshot::Entry& incoming : src.entries) {
    const auto it = by_sig.find(incoming.signature);
    if (it == by_sig.end()) {
      by_sig.emplace(incoming.signature, dst.entries.size());
      dst.entries.push_back(incoming);
      ++stats.added;
      continue;
    }
    EvalCacheSnapshot::Entry& held = dst.entries[it->second];
    const std::string held_bytes = encode_results(held.results);
    const std::string incoming_bytes = encode_results(incoming.results);
    if (held_bytes == incoming_bytes) {
      ++stats.duplicates;
      continue;
    }
    // Deterministic winner over a total order: (failed benchmarks, encoded
    // bytes). A min over a total order is commutative and associative, so
    // any merge order of any snapshot set converges on one canonical cache.
    ++stats.conflicts;
    const auto held_key = std::make_pair(failed_count(held.results), held_bytes);
    const auto incoming_key = std::make_pair(failed_count(incoming.results), incoming_bytes);
    if (incoming_key < held_key) held.results = incoming.results;
  }

  std::set<std::uint64_t> quarantine(dst.quarantined.begin(), dst.quarantined.end());
  quarantine.insert(src.quarantined.begin(), src.quarantined.end());
  dst.quarantined.assign(quarantine.begin(), quarantine.end());

  std::sort(dst.entries.begin(), dst.entries.end(),
            [](const EvalCacheSnapshot::Entry& a, const EvalCacheSnapshot::Entry& b) {
              return a.signature < b.signature;
            });
  return stats;
}

}  // namespace ith::tuner
