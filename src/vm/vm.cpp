#include "vm/vm.hpp"

#include <algorithm>
#include <string>

#include "support/error.hpp"

namespace ith::vm {

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kAdapt: return "Adapt";
    case Scenario::kOpt: return "Opt";
  }
  return "?";
}

namespace {

const char* tier_name(rt::Tier t) {
  switch (t) {
    case rt::Tier::kBaseline: return "baseline";
    case rt::Tier::kMidOpt: return "mid";
    case rt::Tier::kOpt: return "opt";
  }
  return "?";
}

}  // namespace

VirtualMachine::VirtualMachine(const bc::Program& prog, const rt::MachineModel& machine,
                               heur::InlineHeuristic& heuristic, VmConfig config)
    : prog_(prog),
      machine_(machine),
      heuristic_(heuristic),
      config_(config),
      current_(prog.num_methods()),
      next_trip_(prog.num_methods(), config.scenario == Scenario::kAdapt
                                         ? config.hot_method_threshold
                                         : kNeverTrips),
      profile_(prog.num_methods()),
      obs_(config.obs) {
  // Whole-program heuristics (the knapsack oracle) see the program once per
  // VM session, before any compilation.
  heuristic_.prepare(prog_);
  // Under Adapt the optimizer consults the live profile; under Opt there is
  // no profile (everything is compiled on first invocation), so every site
  // takes the Figure 3 path — which is why HOT_CALLEE_MAX_SIZE is "NA" for
  // Opt in Table 4. The oracle captures members (stable for the VM's
  // lifetime), so one PassManager serves every compilation of the session
  // and its analysis cache carries across recompilations.
  opt::SiteOracle oracle = opt::cold_site;
  if (config_.scenario == Scenario::kAdapt) {
    const rt::ProfileData& profile = profile_;
    const std::uint64_t hot_threshold = config_.hot_site_threshold;
    oracle = [&profile, hot_threshold](bc::MethodId m, std::int32_t pc) {
      opt::SiteProfile sp;
      if (m >= 0 && pc >= 0) {
        sp.count = profile.site_count(m, pc);
        sp.is_hot = sp.count >= hot_threshold;
      }
      return sp;
    };
  }
  opt::PipelineDesc pipeline = config_.effective_pipeline();
  if (config_.body_memo != nullptr && opt::BodyMemo::supports(pipeline)) {
    ITH_CHECK(config_.body_memo->serves(pipeline, config_.inline_limits),
              "VmConfig::body_memo was built for another pipeline or other inline limits");
    memo_key_.program = config_.body_memo->program_index(prog_);
    if (memo_key_.program >= 0) {
      memo_ = config_.body_memo;
      if (pipeline.has_pass("inline")) {
        probe_ = std::make_unique<opt::DecisionProbe>(memo_->facts(memo_key_.program), heuristic_,
                                                      oracle, config_.inline_limits);
      }
    }
  }
  pass_manager_ = std::make_unique<opt::PassManager>(prog_, heuristic_, std::move(oracle),
                                                     std::move(pipeline), config_.inline_limits,
                                                     config_.obs);
  if (config_.simulate_icache) {
    icache_ = std::make_unique<rt::ICache>(machine_.icache_bytes, machine_.icache_line_bytes,
                                           machine_.icache_assoc);
  }
  // The private-base conversion is only accessible in class scope, so it
  // must happen here rather than inside make_unique.
  rt::CodeSource& self = *this;
  interp_ = std::make_unique<rt::Interpreter>(prog_, machine_, self, icache_.get(),
                                              config_.interp_options);
}

std::uint64_t VirtualMachine::charge_compile(bc::MethodId id, std::uint64_t cycles) {
  ++compile_counter_;
  const resilience::FaultPlan* plan = config_.faults;
  if (plan != nullptr &&
      plan->should_inject(
          resilience::FaultSite::kCompileInflate,
          resilience::mix_keys(config_.fault_key,
                               resilience::mix_keys(static_cast<std::uint64_t>(id),
                                                    compile_counter_)))) {
    cycles = static_cast<std::uint64_t>(static_cast<double>(cycles) * plan->compile_inflation);
  }
  compile_cycles_run_ += cycles;
  if (config_.budget.max_compile_cycles != 0 &&
      compile_cycles_run_ > config_.budget.max_compile_cycles) {
    throw resilience::BudgetExceededError(resilience::BudgetKind::kCompileCycles,
                                          "compile-cycle budget exceeded");
  }
  check_wall();
  return cycles;
}

void VirtualMachine::check_wall() const {
  if (config_.budget.max_wall_ms == 0) return;
  if (std::chrono::steady_clock::now() >= wall_deadline_) {
    throw resilience::BudgetExceededError(resilience::BudgetKind::kWallClock,
                                          "host wall-clock deadline exceeded");
  }
}

std::unique_ptr<rt::CompiledMethod> VirtualMachine::compile_baseline(bc::MethodId id) {
  auto cm = std::make_unique<rt::CompiledMethod>();
  cm->body = prog_.method(id);
  cm->tier = rt::Tier::kBaseline;
  cm->method_id = id;
  cm->origin.resize(cm->body.size());
  for (std::size_t pc = 0; pc < cm->body.size(); ++pc) {
    cm->origin[pc] = {id, static_cast<std::int32_t>(pc)};
  }
  cm->finalize();

  ITH_ASSERT(live_iter_ != nullptr, "compilation outside a run");
  const std::uint64_t cycles = charge_compile(id, machine_.baseline_compile_cycles(cm->size_words()));
  live_iter_->compile_cycles += cycles;
  ++live_iter_->baseline_compiles;
  ++live_result_->methods_baseline_compiled;
  if (obs_ != nullptr && obs_->enabled(obs::Category::kCompile)) {
    // Sim-domain span: dur is exactly the cycles charged to this iteration,
    // so summing compile.* durations reproduces RunResult::compile_cycles_all.
    obs_->complete(obs::Category::kCompile, "compile.baseline", obs::Domain::kSim, sim_now_,
                   cycles,
                   {{"method", prog_.method(id).name()}, {"size_words", cm->size_words()}});
    obs_->counter("vm.compiles.baseline").add(1);
  }
  sim_now_ += cycles;  // cursor advances even when kCompile is masked out
  return cm;
}

std::unique_ptr<rt::CompiledMethod> VirtualMachine::compile_opt(bc::MethodId id, rt::Tier tier) {
  auto cm = std::make_unique<rt::CompiledMethod>();
  cm->tier = tier;
  cm->method_id = id;
  opt::OptStats stats;

  std::shared_ptr<const opt::BodyMemo::Body> memoized;
  if (memo_ != nullptr) {
    if (probe_ != nullptr) probe_->probe_method(id, verdicts_);
    memo_key_.method = id;
    memo_key_.verdicts = opt::verdict_bytes(verdicts_.decisions);
    memoized = memo_->find(memo_key_);
    if (probe_ != nullptr) {
      ITH_ASSERT(live_result_ != nullptr, "compilation outside a run");
      CompileEvent& event = live_result_->compile_trace.emplace_back();
      event.method = id;
      event.tier = tier;
      if (config_.scenario == Scenario::kAdapt) {
        profile_.hot_sites(config_.hot_site_threshold, event.hot_sites);
      }
      event.verdicts = memo_key_.verdicts;
    }
  }
  if (memoized != nullptr) {
    const bc::Method& original = prog_.method(id);
    cm->body = bc::Method(original.name(), original.num_args(), memoized->num_locals);
    cm->body.mutable_code() = memoized->decode();
    cm->origin = memoized->expand_origins();
    stats = memoized->stats;
  } else {
    opt::OptimizeResult result =
        pass_manager_->run(id, nullptr, probe_ != nullptr ? &verdicts_ : nullptr);
    if (memo_ != nullptr) memo_->insert(memo_key_, result);
    stats = result.stats;
    cm->body = std::move(result.body.method);
    cm->origin.reserve(result.body.meta.size());
    for (const opt::InstrMeta& m : result.body.meta) {
      cm->origin.emplace_back(m.origin_method, m.origin_pc);
    }
  }
  cm->finalize();

  ITH_ASSERT(live_iter_ != nullptr, "compilation outside a run");
  const std::uint64_t cycles =
      charge_compile(id, tier == rt::Tier::kOpt ? machine_.opt_compile_cycles(cm->size_words())
                                                : machine_.mid_compile_cycles(cm->size_words()));
  live_iter_->compile_cycles += cycles;
  ++live_iter_->opt_compiles;
  ++live_result_->methods_opt_compiled;
  if (obs_ != nullptr && obs_->enabled(obs::Category::kCompile)) {
    const bool full = tier == rt::Tier::kOpt;
    obs_->complete(obs::Category::kCompile, full ? "compile.opt" : "compile.mid",
                   obs::Domain::kSim, sim_now_, cycles,
                   {{"method", prog_.method(id).name()},
                    {"size_words", cm->size_words()},
                    {"sites_inlined", stats.inline_stats.sites_inlined},
                    {"sites_considered", stats.inline_stats.sites_considered}});
    obs_->counter(full ? "vm.compiles.opt" : "vm.compiles.mid").add(1);
  }
  sim_now_ += cycles;  // cursor advances even when kCompile is masked out

  auto& agg = live_result_->opt_stats;
  agg.inline_stats.sites_considered += stats.inline_stats.sites_considered;
  agg.inline_stats.sites_inlined += stats.inline_stats.sites_inlined;
  agg.inline_stats.sites_partially_inlined += stats.inline_stats.sites_partially_inlined;
  agg.inline_stats.sites_refused_by_heuristic += stats.inline_stats.sites_refused_by_heuristic;
  agg.inline_stats.sites_refused_structural += stats.inline_stats.sites_refused_structural;
  agg.inline_stats.max_depth_reached =
      std::max(agg.inline_stats.max_depth_reached, stats.inline_stats.max_depth_reached);
  agg.folds += stats.folds;
  agg.copyprops += stats.copyprops;
  agg.dead_stores += stats.dead_stores;
  agg.branch_simplifications += stats.branch_simplifications;
  agg.algebraic_simplifications += stats.algebraic_simplifications;
  agg.compare_fusions += stats.compare_fusions;
  agg.unreachable_removed += stats.unreachable_removed;
  agg.instructions_compacted += stats.instructions_compacted;
  return cm;
}

void VirtualMachine::install(bc::MethodId id, std::unique_ptr<rt::CompiledMethod> cm) {
  // Code placement: fresh address region, line-aligned so methods do not
  // share cache lines.
  const std::uint64_t line = machine_.icache_line_bytes;
  next_code_addr_ = (next_code_addr_ + line - 1) / line * line;
  cm->code_base = next_code_addr_;
  next_code_addr_ += static_cast<std::uint64_t>(cm->size_words()) * machine_.bytes_per_word;
  live_result_->code_words_emitted += cm->size_words();

  auto& slot = current_[static_cast<std::size_t>(id)];
  if (slot != nullptr) {
    // Frames already executing the old version keep it alive via retired_.
    retired_.push_back(std::move(slot));
  }
  slot = std::move(cm);
  if (obs_ != nullptr && obs_->enabled(obs::Category::kVm)) {
    obs_->instant(obs::Category::kVm, "vm.install", obs::Domain::kSim, sim_now_,
                  {{"method", prog_.method(id).name()},
                   {"tier", tier_name(slot->tier)},
                   {"code_base", slot->code_base},
                   {"size_words", slot->size_words()}});
    obs_->counter("vm.installs").add(1);
  }
}

const rt::CompiledMethod& VirtualMachine::invoke(bc::MethodId id) {
  profile_.record_invocation(id);
  const auto i = static_cast<std::size_t>(id);
  auto& slot = current_[i];
  if (slot == nullptr) {
    install(id, config_.scenario == Scenario::kOpt ? compile_opt(id, rt::Tier::kOpt)
                                               : compile_baseline(id));
  } else if (profile_.hot_score(id) >= next_trip_[i]) {
    promote(id);
  }
  return *current_[i];
}

void VirtualMachine::on_back_edge(bc::MethodId id) {
  profile_.record_back_edge(id);
  // Hot-loop detection: recompile as soon as the loop crosses the threshold.
  // By default there is no on-stack replacement (matching Jikes RVM 2.3.3):
  // activations already running continue in the old code and the next
  // invocation picks up the optimized version. With config_.enable_osr the
  // interpreter additionally transfers the live frame at the loop header
  // via osr_replacement() below.
  if (profile_.hot_score(id) >= next_trip_[static_cast<std::size_t>(id)]) promote(id);
}

const rt::CompiledMethod* VirtualMachine::osr_replacement(const rt::CompiledMethod& current,
                                                          std::size_t target_pc) {
  if (!config_.enable_osr) return nullptr;
  const auto& slot = current_[static_cast<std::size_t>(current.method_id)];
  if (slot == nullptr || slot.get() == &current || slot->tier <= current.tier) return nullptr;
  if (obs_ != nullptr && obs_->enabled(obs::Category::kVm)) {
    obs_->instant(obs::Category::kVm, "vm.osr", obs::Domain::kSim, sim_now_,
                  {{"method", prog_.method(current.method_id).name()},
                   {"from_tier", tier_name(current.tier)},
                   {"to_tier", tier_name(slot->tier)},
                   {"loop_pc", target_pc}});
    obs_->counter("vm.osr_transfers").add(1);
  }
  return slot.get();
}

void VirtualMachine::on_call_site(bc::MethodId origin_method, std::int32_t origin_pc) {
  profile_.record_call_site(origin_method, origin_pc);
  // Trip event fires exactly once, the moment the site's count reaches the
  // hot threshold — later executions stay silent.
  if (obs_ != nullptr && obs_->enabled(obs::Category::kVm) &&
      profile_.site_count(origin_method, origin_pc) == config_.hot_site_threshold) {
    obs_->instant(obs::Category::kVm, "vm.hot_site", obs::Domain::kSim, sim_now_,
                  {{"method", prog_.method(origin_method).name()},
                   {"pc", origin_pc},
                   {"threshold", config_.hot_site_threshold}});
    obs_->counter("vm.hot_sites").add(1);
  }
}

void VirtualMachine::promote(bc::MethodId id) {
  const auto i = static_cast<std::size_t>(id);
  const auto& slot = current_[i];
  // From baseline: O1 unless the ladder is collapsed. From O1: full O2, by
  // when the profile has seen enough call-site traffic that hot sites are
  // actually marked hot.
  const bool to_top = slot->tier != rt::Tier::kBaseline || config_.rehot_multiplier == 0;
  const rt::Tier target = to_top ? rt::Tier::kOpt : rt::Tier::kMidOpt;
  next_trip_[i] = to_top ? kNeverTrips : config_.hot_method_threshold * config_.rehot_multiplier;
  if (obs_ != nullptr && obs_->enabled(obs::Category::kVm)) {
    obs_->instant(obs::Category::kVm, "vm.promote", obs::Domain::kSim, sim_now_,
                  {{"method", prog_.method(id).name()},
                   {"from_tier", tier_name(slot->tier)},
                   {"to_tier", tier_name(target)},
                   {"hot_score", profile_.hot_score(id)}});
    obs_->counter("vm.promotions").add(1);
  }
  install(id, compile_opt(id, target));
  ++live_result_->recompilations;
}

RunResult VirtualMachine::run(int iterations) {
  ITH_CHECK(iterations >= 1, "need at least one iteration");
  RunResult result;
  live_result_ = &result;

  const resilience::RunBudget& budget = config_.budget;
  const std::uint64_t run_start = sim_now_;
  const std::uint64_t base_insn_cap = config_.interp_options.max_instructions;
  compile_cycles_run_ = 0;
  if (budget.max_wall_ms != 0) {
    wall_deadline_ =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(budget.max_wall_ms);
  }

  try {
    for (int iter = 0; iter < iterations; ++iter) {
      check_wall();
      // Sim-cycle envelope: abort once the whole run's cycle allowance
      // (execution + compilation) is spent, and pre-shrink the engine's
      // instruction budget so a runaway iteration cannot overshoot the
      // envelope by more than one instruction's cost — every engine charges
      // at least one cycle per instruction, so remaining cycles bound the
      // instructions this iteration may retire.
      bool derived_cap = false;
      if (budget.max_sim_cycles != 0) {
        const std::uint64_t used = sim_now_ - run_start;
        if (used >= budget.max_sim_cycles) {
          throw resilience::BudgetExceededError(resilience::BudgetKind::kSimCycles,
                                                "sim-cycle budget exceeded");
        }
        const std::uint64_t remaining = budget.max_sim_cycles - used;
        if (remaining < base_insn_cap) {
          interp_->set_instruction_limit(remaining);
          derived_cap = true;
        }
      }
      if (config_.faults != nullptr &&
          config_.faults->should_inject(
              resilience::FaultSite::kVmTrap,
              resilience::mix_keys(config_.fault_key, static_cast<std::uint64_t>(iter)))) {
        throw resilience::InjectedFaultError("injected VM trap (iteration " +
                                             std::to_string(iter) + ")");
      }

      result.iterations.push_back(IterationStats{});
      live_iter_ = &result.iterations.back();
      const std::uint64_t iter_start = sim_now_;
      if (config_.iteration_input) {
        // Serving mode: globals persist across iterations (the program's
        // lazily-built tables survive) and the hook writes this request's
        // parameters into their slots.
        config_.iteration_input(iter, interp_->globals());
      } else {
        interp_->reset_globals();  // fresh benchmark input; code/profile/caches stay warm
      }
      if (derived_cap) {
        try {
          live_iter_->exec = interp_->run();
        } catch (const resilience::BudgetExceededError& e) {
          // The engine saw the *derived* cap, not the user's instruction
          // budget — report the envelope that was actually exhausted.
          if (e.which() == resilience::BudgetKind::kInstructions) {
            throw resilience::BudgetExceededError(resilience::BudgetKind::kSimCycles,
                                                  "sim-cycle budget exceeded");
          }
          throw;
        }
        interp_->set_instruction_limit(base_insn_cap);
      } else {
        live_iter_->exec = interp_->run();
      }
      sim_now_ += live_iter_->exec.cycles;  // compiles already advanced the cursor
      if (obs_ != nullptr && obs_->enabled(obs::Category::kVm)) {
        obs_->complete(obs::Category::kVm, "vm.iteration", obs::Domain::kSim, iter_start,
                       sim_now_ - iter_start,
                       {{"iteration", iter},
                        {"exec_cycles", live_iter_->exec.cycles},
                        {"compile_cycles", live_iter_->compile_cycles},
                        {"instructions", live_iter_->exec.instructions},
                        {"calls", live_iter_->exec.calls},
                        {"icache_probes", live_iter_->exec.icache_probes},
                        {"icache_misses", live_iter_->exec.icache_misses}});
      }
    }
  } catch (...) {
    // `result` dies with this frame — never leave pointers into it behind.
    live_iter_ = nullptr;
    live_result_ = nullptr;
    throw;
  }
  live_iter_ = nullptr;
  live_result_ = nullptr;
  if (obs_ != nullptr) obs_->flush();

  const IterationStats& first = result.iterations.front();
  result.total_cycles = first.exec.cycles + first.compile_cycles;
  result.running_cycles = first.exec.cycles;
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    result.running_cycles = std::min(result.running_cycles, result.iterations[i].exec.cycles);
  }
  for (const IterationStats& it : result.iterations) {
    result.compile_cycles_all += it.compile_cycles;
  }
  return result;
}

}  // namespace ith::vm
