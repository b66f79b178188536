#include "resilience/checkpoint.hpp"

#include <cmath>
#include <limits>

#include "support/codec.hpp"
#include "support/error.hpp"

namespace ith::resilience {

namespace {

constexpr codec::FileFormat kFormat{{'I', 'T', 'H', 'G', 'A', 'C', 'P', '1'}, "checkpoint"};

void write_genome(codec::Writer& w, const std::vector<int>& g) {
  w.u64(g.size());
  for (const int x : g) w.i64(x);
}

/// Reads an i64 word that must fit an int no smaller than `min`.
int read_int(codec::Reader& r, const char* field, std::int64_t min) {
  const std::int64_t v = r.i64();
  ITH_CHECK(v >= min && v <= std::numeric_limits<int>::max(),
            std::string("checkpoint ") + field + " out of range (corrupted file)");
  return static_cast<int>(v);
}

/// Reads an f64 word that must be finite.
double read_finite(codec::Reader& r, const char* field) {
  const double v = r.f64();
  ITH_CHECK(std::isfinite(v), std::string("checkpoint ") + field + " is not finite (corrupted file)");
  return v;
}

std::vector<int> read_genome(codec::Reader& r, const char* field) {
  const std::uint64_t n = r.count();
  std::vector<int> g;
  g.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    g.push_back(read_int(r, field, std::numeric_limits<int>::min()));
  }
  return g;
}

std::string serialize(const GaCheckpoint& cp) {
  codec::Writer w;
  w.u64(cp.fingerprint);
  w.i64(cp.generation);
  w.u64(cp.rng_state);
  w.u64(cp.rng_inc);
  w.u64(cp.evaluations);
  w.u64(cp.cache_hits);
  w.f64(cp.best_ever);
  write_genome(w, cp.best_genome);
  w.i64(cp.stale);
  w.u64(cp.population.size());
  for (const ga::Genome& g : cp.population) write_genome(w, g);
  w.u64(cp.fitness.size());
  for (const double f : cp.fitness) w.f64(f);
  w.u64(cp.cache.size());
  for (const auto& [g, f] : cp.cache) {
    write_genome(w, g);
    w.f64(f);
  }
  w.u64(cp.history.size());
  for (const ga::GenerationStats& gs : cp.history) {
    w.i64(gs.generation);
    w.f64(gs.best);
    w.f64(gs.mean);
    w.f64(gs.worst);
    w.f64(gs.diversity);
    write_genome(w, gs.best_genome);
  }
  w.u64(cp.quarantine.size());
  for (const std::vector<int>& q : cp.quarantine) write_genome(w, q);
  return w.bytes();
}

GaCheckpoint deserialize(std::string_view payload) {
  codec::Reader r(payload, kFormat.what);
  GaCheckpoint cp;
  cp.fingerprint = r.u64();
  cp.generation = read_int(r, "generation", 0);
  cp.rng_state = r.u64();
  cp.rng_inc = r.u64();
  cp.evaluations = r.u64();
  cp.cache_hits = r.u64();
  cp.best_ever = read_finite(r, "best fitness");
  cp.best_genome = read_genome(r, "best genome gene");
  cp.stale = read_int(r, "stale count", 0);
  for (std::uint64_t i = 0, n = r.count(); i < n; ++i) {
    cp.population.push_back(read_genome(r, "population gene"));
  }
  for (std::uint64_t i = 0, n = r.count(); i < n; ++i) {
    cp.fitness.push_back(read_finite(r, "population fitness"));
  }
  for (std::uint64_t i = 0, n = r.count(); i < n; ++i) {
    ga::Genome g = read_genome(r, "cached genome gene");
    const double f = read_finite(r, "cached fitness");
    cp.cache.emplace_back(std::move(g), f);
  }
  for (std::uint64_t i = 0, n = r.count(); i < n; ++i) {
    ga::GenerationStats gs;
    gs.generation = read_int(r, "history generation", 0);
    gs.best = read_finite(r, "history best");
    gs.mean = read_finite(r, "history mean");
    gs.worst = read_finite(r, "history worst");
    gs.diversity = read_finite(r, "history diversity");
    gs.best_genome = read_genome(r, "history genome gene");
    cp.history.push_back(std::move(gs));
  }
  for (std::uint64_t i = 0, n = r.count(); i < n; ++i) {
    cp.quarantine.push_back(read_genome(r, "quarantine key"));
  }
  if (!r.exhausted()) throw Error("checkpoint has trailing bytes (corrupted file)");
  return cp;
}

}  // namespace

void save_checkpoint(const std::string& path, const GaCheckpoint& cp) {
  codec::save_sealed(path, kFormat, serialize(cp));
}

GaCheckpoint load_checkpoint(const std::string& path) {
  return deserialize(codec::load_sealed(path, kFormat));
}

}  // namespace ith::resilience
