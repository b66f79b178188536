#include "opt/pipeline.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <optional>
#include <sstream>

#include "opt/passes.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"

namespace ith::opt {

std::string format_pass_stat(const PassStat& s) {
  std::ostringstream os;
  os << "[pass " << s.pass << "] inst " << s.inst_before << "→" << s.inst_after << ", time "
     << s.host_us << "us";
  return os.str();
}

// --- Pass implementations ----------------------------------------------

namespace {

class InlinePass final : public Pass {
 public:
  const char* name() const override { return "inline"; }
  const char* span_name() const override { return "pass.inline"; }
  std::size_t run(AnnotatedMethod& am, AnalysisManager& analyses, PassContext& ctx,
                  PreservedAnalyses& preserved) override {
    InlineStats& is = ctx.stats.inline_stats;
    if (analyses.callees(ctx.root).empty()) {
      // Call-free root: the walk would be empty and the splice a copy.
      // Skipping both is what turns the recompilation ladder's repeated
      // leaf compiles into pure cache hits.
      ITH_CHECK(ctx.walk == nullptr || ctx.walk->decisions.empty(),
                "inline walk diverged: entries given for a call-free method");
      is.size_before_words = analyses.method_size(ctx.root);
      is.size_after_words = is.size_before_words;
      return 0;
    }
    const VerdictTrace& walk = ctx.walk != nullptr ? *ctx.walk : ctx.manager.walk(ctx.root);
    am = Inliner(ctx.prog, ctx.obs, &analyses).run(ctx.root, walk, &is);
    if (ctx.report != nullptr) {
      ctx.report->insert(ctx.report->end(), walk.decisions.begin(), walk.decisions.end());
    }
    preserved = PreservedAnalyses::none();
    return is.sites_inlined + is.sites_partially_inlined;
  }
};

class FoldPass final : public Pass {
 public:
  const char* name() const override { return "fold"; }
  const char* span_name() const override { return "pass.fold"; }
  std::size_t run(AnnotatedMethod& am, AnalysisManager& analyses, PassContext& ctx,
                  PreservedAnalyses& preserved) override {
    const std::size_t n = constant_fold(am, analyses.branch_targets(am));
    ctx.stats.folds += n;
    // Folding rewrites branches (const-condition elimination) and removes
    // loads (load;pop): nothing body-scope survives a change.
    if (n > 0) preserved = PreservedAnalyses::none();
    return n;
  }
};

class AlgebraicPass final : public Pass {
 public:
  const char* name() const override { return "algebraic"; }
  const char* span_name() const override { return "pass.algebraic"; }
  std::size_t run(AnnotatedMethod& am, AnalysisManager& analyses, PassContext& ctx,
                  PreservedAnalyses&) override {
    // Rewrites touch only kConst/binop/kPop shapes: no branches, loads or
    // successor edges change, so every body analysis stays valid.
    const std::size_t n = simplify_algebraic(am, analyses.branch_targets(am));
    ctx.stats.algebraic_simplifications += n;
    return n;
  }
};

class CompareFusionPass final : public Pass {
 public:
  const char* name() const override { return "compare_fusion"; }
  const char* span_name() const override { return "pass.compare_fusion"; }
  std::size_t run(AnnotatedMethod& am, AnalysisManager& analyses, PassContext& ctx,
                  PreservedAnalyses&) override {
    // A fused jz/jnz keeps its target and both successors; no loads move.
    const std::size_t n = fuse_compare_branch(am, analyses.branch_targets(am));
    ctx.stats.compare_fusions += n;
    return n;
  }
};

class BranchSimplifyPass final : public Pass {
 public:
  const char* name() const override { return "branch_simplify"; }
  const char* span_name() const override { return "pass.branch_simplify"; }
  std::size_t run(AnnotatedMethod& am, AnalysisManager&, PassContext& ctx,
                  PreservedAnalyses& preserved) override {
    const std::size_t n = simplify_branches(am);
    ctx.stats.branch_simplifications += n;
    // Threading retargets branches and deletes jumps; only the local load
    // counts provably survive.
    if (n > 0) {
      preserved = PreservedAnalyses::none().preserve(AnalysisId::kLiveness);
    }
    return n;
  }
};

class CopyPropPass final : public Pass {
 public:
  const char* name() const override { return "copyprop"; }
  const char* span_name() const override { return "pass.copyprop"; }
  std::size_t run(AnnotatedMethod& am, AnalysisManager& analyses, PassContext& ctx,
                  PreservedAnalyses& preserved) override {
    const std::size_t n =
        copy_propagate(am, analyses.branch_targets(am), analyses.liveness(am).load_count);
    ctx.stats.copyprops += n;
    // Load/store pairs vanish (liveness changes) but no branch is touched
    // and every rewrite falls through like the original.
    if (n > 0) {
      preserved = PreservedAnalyses::none()
                      .preserve(AnalysisId::kBranchTargets)
                      .preserve(AnalysisId::kReachability);
    }
    return n;
  }
};

class DcePass final : public Pass {
 public:
  const char* name() const override { return "dce"; }
  const char* span_name() const override { return "pass.dce"; }
  std::size_t run(AnnotatedMethod& am, AnalysisManager& analyses, PassContext& ctx,
                  PreservedAnalyses&) override {
    // store -> pop removes no load, no branch, no edge: everything body-
    // scope survives (the canonical "changes code, preserves liveness"
    // case the stale detector's value comparison is designed around).
    const std::size_t n = eliminate_dead_stores(am, analyses.liveness(am).load_count);
    ctx.stats.dead_stores += n;
    return n;
  }
};

class UnreachablePass final : public Pass {
 public:
  const char* name() const override { return "unreachable"; }
  const char* span_name() const override { return "pass.unreachable"; }
  std::size_t run(AnnotatedMethod& am, AnalysisManager& analyses, PassContext& ctx,
                  PreservedAnalyses& preserved) override {
    const std::size_t n = eliminate_unreachable(am, analyses.reachable(am));
    ctx.stats.unreachable_removed += n;
    // Nopping dead code can erase dead loads and dead branches, but the
    // reachable region — the only thing reachability describes — is intact.
    if (n > 0) {
      preserved = PreservedAnalyses::none().preserve(AnalysisId::kReachability);
    }
    return n;
  }
};

}  // namespace

const std::vector<std::string>& known_pass_names() {
  static const std::vector<std::string> kNames = {
      "inline",   "fold", "algebraic",  "compare_fusion", "branch_simplify",
      "copyprop", "dce",  "unreachable"};
  return kNames;
}

std::unique_ptr<Pass> make_pass(const std::string& name) {
  if (name == "inline") return std::make_unique<InlinePass>();
  if (name == "fold") return std::make_unique<FoldPass>();
  if (name == "algebraic") return std::make_unique<AlgebraicPass>();
  if (name == "compare_fusion") return std::make_unique<CompareFusionPass>();
  if (name == "branch_simplify") return std::make_unique<BranchSimplifyPass>();
  if (name == "copyprop") return std::make_unique<CopyPropPass>();
  if (name == "dce") return std::make_unique<DcePass>();
  if (name == "unreachable") return std::make_unique<UnreachablePass>();
  throw Error("unknown optimization pass '" + name + "'");
}

// --- PipelineDesc -------------------------------------------------------

PipelineDesc PipelineDesc::standard() {
  PipelineDesc p;
  p.setup = {"inline"};
  p.fixpoint = {"fold",     "algebraic", "compare_fusion", "branch_simplify",
                "copyprop", "dce",       "unreachable"};
  p.max_iterations = 6;
  return p;
}

std::string PipelineDesc::to_string() const {
  std::ostringstream os;
  for (const std::string& name : setup) os << name << ",";
  os << "fixpoint(";
  for (std::size_t i = 0; i < fixpoint.size(); ++i) {
    if (i > 0) os << ",";
    os << fixpoint[i];
  }
  os << "):" << max_iterations;
  return os.str();
}

namespace {

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start < csv.size()) {
    std::size_t end = csv.find(',', start);
    if (end == std::string::npos) end = csv.size();
    if (end > start) names.push_back(csv.substr(start, end - start));
    start = end + 1;
  }
  return names;
}

void check_known(const std::vector<std::string>& names) {
  const auto& known = known_pass_names();
  for (const std::string& name : names) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw Error("unknown optimization pass '" + name + "' in pipeline description");
    }
  }
}

}  // namespace

PipelineDesc PipelineDesc::parse(const std::string& text) {
  const std::size_t fx = text.find("fixpoint(");
  ITH_CHECK(fx != std::string::npos, "pipeline description needs a fixpoint(...) group");
  const std::size_t close = text.find(')', fx);
  ITH_CHECK(close != std::string::npos, "unterminated fixpoint(...) in pipeline description");
  ITH_CHECK(close + 1 < text.size() && text[close + 1] == ':',
            "pipeline description needs ':<max_iterations>' after fixpoint(...)");

  PipelineDesc p;
  p.setup = split_names(text.substr(0, fx));
  p.fixpoint = split_names(text.substr(fx + 9, close - (fx + 9)));
  check_known(p.setup);
  check_known(p.fixpoint);
  const std::string iters = text.substr(close + 2);
  const std::optional<std::int64_t> n = parse_int_in(iters, 1, INT_MAX);
  if (!n) {
    throw Error("bad max_iterations '" + iters +
                "' in pipeline description (want an integer >= 1 ending the text)");
  }
  p.max_iterations = static_cast<int>(*n);
  return p;
}

bool PipelineDesc::has_pass(const std::string& name) const {
  return std::find(setup.begin(), setup.end(), name) != setup.end() ||
         std::find(fixpoint.begin(), fixpoint.end(), name) != fixpoint.end();
}

PipelineDesc PipelineDesc::without(const std::string& name) const {
  PipelineDesc p = *this;
  std::erase(p.setup, name);
  std::erase(p.fixpoint, name);
  return p;
}

// --- PassManager --------------------------------------------------------

PassManager::PassManager(const bc::Program& prog, const heur::InlineHeuristic& heuristic,
                         SiteOracle oracle, PipelineDesc pipeline, InlineLimits limits,
                         obs::Context* obs)
    : prog_(prog),
      heuristic_(heuristic),
      oracle_(std::move(oracle)),
      pipeline_(std::move(pipeline)),
      limits_(limits),
      obs_(obs),
      analyses_(prog, obs) {
  ITH_CHECK(oracle_ != nullptr, "PassManager requires a site oracle");
  ITH_CHECK(pipeline_.max_iterations >= 1, "optimizer needs at least one iteration");
  auto add = [&](const std::string& name, std::vector<Registered>& dst) {
    Registered reg;
    reg.pass = make_pass(name);
    if (obs_ != nullptr) {
      reg.runs_counter = &obs_->counter("opt.pass." + name + ".runs");
      reg.changes_counter = &obs_->counter("opt.pass." + name + ".changes");
    }
    reg.stat_index = num_stats_++;
    dst.push_back(std::move(reg));
  };
  for (const std::string& name : pipeline_.setup) add(name, setup_);
  for (const std::string& name : pipeline_.fixpoint) add(name, fixpoint_);
}

std::size_t PassManager::run_one(Registered& reg, AnnotatedMethod& am, PassContext& ctx,
                                 OptimizeResult& result, bool trace) {
  PassStat& stat = result.pass_stats[reg.stat_index];
  if (stat.runs == 0) stat.inst_before = am.method.size();
  PreservedAnalyses preserved;  // defaults to all-preserved
  std::uint64_t t0 = 0;
  if (trace) t0 = obs_->host_now_us();
  const std::size_t n = reg.pass->run(am, analyses_, ctx, preserved);
  if (trace) {
    const std::uint64_t dur = obs_->host_now_us() - t0;
    stat.host_us += dur;
    obs_->complete(obs::Category::kOpt, reg.pass->span_name(), obs::Domain::kHost, t0, dur,
                   {{"changes", n}, {"method", prog_.method(ctx.root).name()}});
  }
  ++stat.runs;
  stat.changes += n;
  stat.inst_after = am.method.size();
  if (reg.runs_counter != nullptr) reg.runs_counter->add(1);
  if (reg.changes_counter != nullptr && n > 0) reg.changes_counter->add(n);
  if (n > 0) analyses_.invalidate(preserved);
  return n;
}

const VerdictTrace& PassManager::walk(bc::MethodId id) {
  if (probe_ == nullptr) {
    facts_ = std::make_unique<const ProbeFacts>(prog_);
    probe_ = std::make_unique<const DecisionProbe>(*facts_, heuristic_, oracle_, limits_);
  }
  probe_->probe_method(id, walk_);
  return walk_;
}

OptimizeResult PassManager::run(bc::MethodId id, InlineReport* report, const VerdictTrace* walk) {
  analyses_.begin_body();

  OptimizeResult result;
  result.pass_stats.resize(num_stats_);
  for (const Registered& reg : setup_) result.pass_stats[reg.stat_index].pass = reg.pass->name();
  for (const Registered& reg : fixpoint_) {
    result.pass_stats[reg.stat_index].pass = reg.pass->name();
  }

  const bool trace = obs_ != nullptr && obs_->enabled(obs::Category::kOpt);
  obs::ScopedSpan span(obs_, obs::Category::kOpt, "opt.optimize",
                       trace ? std::vector<obs::Arg>{{"method", prog_.method(id).name()}}
                             : std::vector<obs::Arg>{});

  result.body = AnnotatedMethod::from_method(prog_.method(id), id);
  PassContext ctx{prog_, id, *this, obs_, result.stats, report, walk};

  for (Registered& reg : setup_) run_one(reg, result.body, ctx, result, trace);

  for (int iter = 0; iter < pipeline_.max_iterations; ++iter) {
    std::size_t changes = 0;
    for (Registered& reg : fixpoint_) changes += run_one(reg, result.body, ctx, result, trace);
    // Placeholder removal is unconditional and outside the change count.
    const std::size_t removed = compact_nops(result.body);
    result.stats.instructions_compacted += removed;
    if (removed > 0) analyses_.invalidate(PreservedAnalyses::none());
    result.stats.iterations = iter + 1;
    if (changes == 0) break;
  }

  if (trace) {
    span.arg("iterations", result.stats.iterations);
    span.arg("sites_considered", result.stats.inline_stats.sites_considered);
    span.arg("sites_inlined", result.stats.inline_stats.sites_inlined);
    span.arg("sites_partial", result.stats.inline_stats.sites_partially_inlined);
    span.arg("refused_heuristic", result.stats.inline_stats.sites_refused_by_heuristic);
    span.arg("refused_structural", result.stats.inline_stats.sites_refused_structural);
    span.arg("size_before_words", result.stats.inline_stats.size_before_words);
    span.arg("size_after_words", result.stats.inline_stats.size_after_words);
  }
  return result;
}

}  // namespace ith::opt
