#include "ga/ga.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <set>

#include "resilience/checkpoint.hpp"
#include "resilience/fault.hpp"
#include "support/codec.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace ith::ga {

GeneticAlgorithm::GeneticAlgorithm(GenomeSpace space, FitnessFn fitness, GaConfig config)
    : space_(std::move(space)), fitness_(std::move(fitness)), config_(config) {
  ITH_CHECK(fitness_ != nullptr, "GA requires a fitness function");
  ITH_CHECK(config_.population >= 2, "population must be >= 2");
  ITH_CHECK(config_.generations >= 1, "need at least one generation");
  ITH_CHECK(config_.elites >= 0 && config_.elites < config_.population,
            "elites must be in [0, population)");
  ITH_CHECK(config_.crossover_rate >= 0.0 && config_.crossover_rate <= 1.0,
            "crossover rate out of [0,1]");
  ITH_CHECK(config_.mutation_prob >= 0.0 && config_.mutation_prob <= 1.0,
            "mutation probability out of [0,1]");
  for (const Genome& g : config_.seed_individuals) {
    ITH_CHECK(space_.valid(g), "seed individual outside the genome space");
  }
}

void GeneticAlgorithm::set_progress(std::function<void(const GenerationStats&)> cb) {
  progress_ = std::move(cb);
}

std::uint64_t GeneticAlgorithm::fingerprint() const {
  using codec::fnv1a;
  using resilience::mix_keys;
  std::uint64_t h = fnv1a("ith-ga-fingerprint");
  h = mix_keys(h, static_cast<std::uint64_t>(config_.population));
  h = mix_keys(h, static_cast<std::uint64_t>(config_.generations));
  h = mix_keys(h, static_cast<std::uint64_t>(config_.selection));
  h = mix_keys(h, static_cast<std::uint64_t>(config_.tournament_k));
  h = mix_keys(h, static_cast<std::uint64_t>(config_.crossover));
  h = mix_keys(h, fnv1a(std::to_string(config_.crossover_rate)));
  h = mix_keys(h, static_cast<std::uint64_t>(config_.mutation));
  h = mix_keys(h, fnv1a(std::to_string(config_.mutation_prob)));
  h = mix_keys(h, static_cast<std::uint64_t>(config_.elites));
  h = mix_keys(h, config_.seed);
  h = mix_keys(h, static_cast<std::uint64_t>(config_.patience));
  h = mix_keys(h, config_.memoize ? 1 : 0);
  for (const GeneSpec& gs : space_.genes()) {
    h = mix_keys(h, fnv1a(gs.name));
    h = mix_keys(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(gs.lo)));
    h = mix_keys(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(gs.hi)));
  }
  for (const Genome& g : config_.seed_individuals) {
    for (const int x : g) h = mix_keys(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(x)));
    h = mix_keys(h, 0x5eedu);
  }
  return h;
}

std::vector<double> GeneticAlgorithm::evaluate(const std::vector<Genome>& pop, GaResult& result) {
  std::vector<double> fitness(pop.size());
  std::vector<std::size_t> todo;  // indices not answered by the cache

  if (config_.memoize) {
    for (std::size_t i = 0; i < pop.size(); ++i) {
      const auto it = cache_.find(pop[i]);
      if (it != cache_.end()) {
        fitness[i] = it->second;
        ++result.cache_hits;
      } else {
        todo.push_back(i);
      }
    }
  } else {
    todo.resize(pop.size());
    std::iota(todo.begin(), todo.end(), 0);
  }

  // Within one generation, duplicate uncached genomes are evaluated once.
  std::map<Genome, std::vector<std::size_t>> groups;
  for (std::size_t i : todo) groups[pop[i]].push_back(i);

  std::vector<const Genome*> uniques;
  uniques.reserve(groups.size());
  for (const auto& [g, _] : groups) uniques.push_back(&g);

  std::vector<double> values(uniques.size());
  if (config_.threads == 1 || uniques.size() <= 1) {
    for (std::size_t u = 0; u < uniques.size(); ++u) values[u] = fitness_(*uniques[u]);
  } else {
    ThreadPool pool(config_.threads == 0 ? 0 : static_cast<std::size_t>(config_.threads));
    pool.parallel_for(uniques.size(),
                      [&](std::size_t u) { values[u] = fitness_(*uniques[u]); });
  }
  result.evaluations += uniques.size();

  for (std::size_t u = 0; u < uniques.size(); ++u) {
    const Genome& g = *uniques[u];
    if (config_.memoize) cache_[g] = values[u];
    for (std::size_t i : groups[g]) fitness[i] = values[u];
  }
  return fitness;
}

GaResult GeneticAlgorithm::run() {
  Pcg32 rng(config_.seed, 0x6a11);
  GaResult result;
  const std::uint64_t fp = fingerprint();

  std::vector<Genome> pop;
  std::vector<double> fitness;
  double best_ever = 0.0;
  Genome best_genome;
  int stale = 0;
  int gen0 = 0;

  auto journal = [&](int gen) {
    if (!config_.journal) return;
    if (config_.checkpoint_every > 1 && gen % config_.checkpoint_every != 0) return;
    resilience::GaCheckpoint cp;
    cp.fingerprint = fp;
    cp.generation = gen;
    cp.rng_state = rng.raw_state();
    cp.rng_inc = rng.raw_inc();
    cp.evaluations = result.evaluations;
    cp.cache_hits = result.cache_hits;
    cp.best_ever = best_ever;
    cp.best_genome = best_genome;
    cp.stale = stale;
    cp.population = pop;
    cp.fitness = fitness;
    cp.cache.reserve(cache_.size());
    for (const auto& [g, f] : cache_) cp.cache.emplace_back(g, f);
    cp.history = result.history;
    if (config_.quarantine_source) cp.quarantine = config_.quarantine_source();
    config_.journal(cp);
  };

  // Ordering matters for crash consistency: best/stale are updated *before*
  // the journal runs (so the checkpoint reflects the completed generation)
  // and the progress callback comes *last* — a kill inside progress (the
  // chaos tests' kill point) always leaves a checkpoint for this generation.
  auto record_generation = [&](int gen) {
    GenerationStats gs;
    gs.generation = gen;
    gs.best = *std::min_element(fitness.begin(), fitness.end());
    gs.worst = *std::max_element(fitness.begin(), fitness.end());
    gs.mean = std::accumulate(fitness.begin(), fitness.end(), 0.0) /
              static_cast<double>(fitness.size());
    gs.diversity = static_cast<double>(std::set<Genome>(pop.begin(), pop.end()).size()) /
                   static_cast<double>(pop.size());
    const auto bi = static_cast<std::size_t>(
        std::min_element(fitness.begin(), fitness.end()) - fitness.begin());
    gs.best_genome = pop[bi];
    result.history.push_back(gs);
    if (config_.obs != nullptr && config_.obs->enabled(obs::Category::kGa)) {
      std::vector<obs::Arg> args{{"generation", gs.generation},
                                 {"best", gs.best},
                                 {"mean", gs.mean},
                                 {"worst", gs.worst},
                                 {"diversity", gs.diversity},
                                 {"evaluations", result.evaluations},
                                 {"cache_hits", result.cache_hits}};
      if (config_.generation_args) config_.generation_args(args);
      config_.obs->instant(obs::Category::kGa, "ga.generation", obs::Domain::kHost,
                           config_.obs->host_now_us(), std::move(args));
    }

    if (gs.best < best_ever) {
      best_ever = gs.best;
      best_genome = pop[bi];
      stale = 0;
    } else {
      ++stale;
    }
    journal(gen);
    if (progress_) progress_(gs);
  };

  if (config_.resume_from != nullptr) {
    const resilience::GaCheckpoint& cp = *config_.resume_from;
    ITH_CHECK(cp.fingerprint == fp,
              "checkpoint does not match this GA configuration (fingerprint mismatch)");
    ITH_CHECK(cp.population.size() == static_cast<std::size_t>(config_.population) &&
                  cp.fitness.size() == cp.population.size(),
              "checkpoint population size mismatch");
    ITH_CHECK(cp.generation >= 0 && cp.generation < config_.generations,
              "checkpoint generation " + std::to_string(cp.generation) +
                  " lies outside this run's " + std::to_string(config_.generations) +
                  " generations");
    // The bytes alone cannot show a gene outside its range; the space can.
    const auto check_genome = [&](const Genome& g, const std::string& what) {
      ITH_CHECK(g.size() == space_.size(), "checkpoint " + what + " has " +
                                               std::to_string(g.size()) + " genes, the space " +
                                               std::to_string(space_.size()));
      for (std::size_t i = 0; i < g.size(); ++i) {
        const GeneSpec& spec = space_.gene(i);
        ITH_CHECK(g[i] >= spec.lo && g[i] <= spec.hi,
                  "checkpoint " + what + " gene " + spec.name + " = " + std::to_string(g[i]) +
                      " lies outside [" + std::to_string(spec.lo) + ", " +
                      std::to_string(spec.hi) + "]");
      }
    };
    for (std::size_t i = 0; i < cp.population.size(); ++i) {
      check_genome(cp.population[i], "population genome " + std::to_string(i));
    }
    check_genome(cp.best_genome, "best genome");
    for (const auto& [g, f] : cp.cache) check_genome(g, "cached genome");
    for (const GenerationStats& gs : cp.history) {
      check_genome(gs.best_genome, "history genome of generation " + std::to_string(gs.generation));
    }
    rng.restore(cp.rng_state, cp.rng_inc);
    pop = cp.population;
    fitness = cp.fitness;
    best_ever = cp.best_ever;
    best_genome = cp.best_genome;
    stale = cp.stale;
    result.evaluations = cp.evaluations;
    result.cache_hits = cp.cache_hits;
    result.history = cp.history;
    if (config_.memoize) {
      for (const auto& [g, f] : cp.cache) cache_[g] = f;
    }
    gen0 = cp.generation;
  } else {
    // Initial population: seed individuals first, random fill.
    pop.reserve(static_cast<std::size_t>(config_.population));
    for (const Genome& g : config_.seed_individuals) {
      if (pop.size() < static_cast<std::size_t>(config_.population)) pop.push_back(g);
    }
    while (pop.size() < static_cast<std::size_t>(config_.population)) {
      pop.push_back(space_.random(rng));
    }

    fitness = evaluate(pop, result);
    best_ever = fitness[0];
    best_genome = pop[0];
    record_generation(0);
  }

  for (int gen = gen0 + 1; gen < config_.generations; ++gen) {
    if (config_.patience > 0 && stale >= config_.patience) break;

    // Elitism: carry over the best individuals unchanged.
    std::vector<std::size_t> order(pop.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return fitness[a] < fitness[b]; });

    std::vector<Genome> next;
    next.reserve(pop.size());
    for (int e = 0; e < config_.elites; ++e) next.push_back(pop[order[static_cast<std::size_t>(e)]]);

    while (next.size() < pop.size()) {
      const std::size_t pa = config_.selection == SelectionKind::kTournament
                                 ? tournament_select(fitness, config_.tournament_k, rng)
                                 : roulette_select(fitness, rng);
      const std::size_t pb = config_.selection == SelectionKind::kTournament
                                 ? tournament_select(fitness, config_.tournament_k, rng)
                                 : roulette_select(fitness, rng);
      Genome child = rng.chance(config_.crossover_rate)
                         ? crossover(pop[pa], pop[pb], config_.crossover, rng)
                         : pop[pa];
      mutate(child, space_, config_.mutation, config_.mutation_prob, rng);
      space_.clamp(child);
      next.push_back(std::move(child));
    }

    pop = std::move(next);
    fitness = evaluate(pop, result);
    record_generation(gen);
  }

  result.best = best_genome;
  result.best_fitness = best_ever;
  if (config_.obs != nullptr) {
    config_.obs->counter("ga.evaluations").add(result.evaluations);
    config_.obs->counter("ga.cache_hits").add(result.cache_hits);
    config_.obs->flush();
  }
  return result;
}

}  // namespace ith::ga
