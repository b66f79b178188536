#include "opt/decision_probe.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "bytecode/size_estimator.hpp"
#include "opt/analysis.hpp"
#include "opt/passes.hpp"
#include "support/codec.hpp"
#include "support/error.hpp"

namespace ith::opt {

namespace {

// Event stream bytes. Only the verdict of each consultation is hashed: the
// *sequence* of consultations is itself a function of the program and the
// verdicts so far (each approval deterministically rewrites the remaining
// walk), so equal verdict streams imply equal consultation streams by
// induction — hashing sizes or rules would only reduce collapse.
constexpr unsigned char kConsultNo = 0xA0;
constexpr unsigned char kConsultYes = 0xA1;
constexpr unsigned char kConsultPartial = 0xA2;
constexpr unsigned char kForkCold = 0xB0;
constexpr unsigned char kForkHot = 0xB1;
constexpr unsigned char kPathEnd = 0x55;

}  // namespace

const char* structural_rule(const InlineLimits& limits, int depth, int occurrences,
                            int caller_words, const CallSite& site) {
  if (depth >= limits.hard_depth_cap) return "structural:depth_cap";
  if (depth > 0 && occurrences >= limits.max_recursive_occurrences) {
    return "structural:recursive_chain";
  }
  if (caller_words >= limits.max_body_words) return "structural:body_too_big";
  if (!site.inlinable) return "structural:not_inlinable";
  return nullptr;
}

namespace {

/// Budget overflow: the signature falls back to hashing the raw parameter
/// vector. Sound (distinct params stay distinct) but collapse-free.
SignatureResult overflow_result(const heur::InlineParams& params, std::uint64_t events,
                                std::uint64_t forks) {
  std::uint64_t h = codec::kFnv1aBasis;
  for (const int v : params.to_array()) {
    h = codec::fnv1a_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  SignatureResult result;
  result.value = h;
  result.exact = false;
  result.consultations = events;
  result.forks = forks;
  return result;
}

}  // namespace

ProbeFacts::ProbeFacts(const bc::Program& prog)
    : est_size_(prog.num_methods()), num_insns_(prog.num_methods()) {
  // Per-method facts a splice of that method needs. Only inlinable methods
  // are ever spliced, so the prologue and guard-head analyses run for those
  // alone.
  struct Callee {
    bool inlinable = false;
    bool needs_prologue = false;  // !non_arg_locals_definitely_assigned
    int num_locals = 0;
    int body_words = 0;  // as spliced: each kRet becomes a kJmp to the landing pc
    std::optional<PartialShape> head;
  };
  const std::size_t n = prog.num_methods();
  std::vector<Callee> callees(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<bc::MethodId>(i);
    const bc::Method& m = prog.method(id);
    est_size_[i] = bc::estimated_method_size(m);
    num_insns_[i] = m.size();
    Callee& c = callees[i];
    c.inlinable = Inliner::is_inlinable(prog, id);
    if (!c.inlinable) continue;
    c.needs_prologue = !non_arg_locals_definitely_assigned(m);
    c.num_locals = m.num_locals();
    for (const bc::Instruction& insn : m.code()) {
      c.body_words += bc::estimated_words(
          insn.op == bc::Op::kRet ? bc::Instruction{bc::Op::kJmp, 0, 0} : insn);
    }
    c.head = partial_inline_shape(m);
  }

  const int store_w = bc::estimated_words(bc::Instruction{bc::Op::kStore, 0, 0});
  const int const_w = bc::estimated_words(bc::Instruction{bc::Op::kConst, 0, 0});
  const int load_w = bc::estimated_words(bc::Instruction{bc::Op::kLoad, 0, 0});
  const int call_w = bc::estimated_words(bc::Instruction{bc::Op::kCall, 0, 0});
  site_begin_.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    site_begin_.push_back(static_cast<std::uint32_t>(sites_.size()));
    const bc::Method& m = prog.method(static_cast<bc::MethodId>(i));
    for (std::size_t pc = 0; pc < m.size(); ++pc) {
      const bc::Instruction& insn = m.code()[pc];
      if (insn.op != bc::Op::kCall) continue;
      CallSite site;
      site.pc = static_cast<std::int32_t>(pc);
      site.callee = insn.a;
      const int nargs = insn.b;
      ITH_CHECK(insn.a >= 0 && static_cast<std::size_t>(insn.a) < n,
                "call to unknown method id " + std::to_string(insn.a));
      const Callee& c = callees[static_cast<std::size_t>(insn.a)];
      site.inlinable = c.inlinable;
      site.callee_size = est_size_[static_cast<std::size_t>(insn.a)];
      if (c.inlinable) {
        // A full splice prepends the marshalling stores and, unless every
        // non-argument local is assigned before use, a zeroing prologue;
        // the body replaces the call.
        const int zeroed = c.needs_prologue ? std::max(0, c.num_locals - nargs) : 0;
        site.full_insns = nargs + 2 * zeroed;
        site.full_words = nargs * store_w + zeroed * (const_w + store_w) + c.body_words - call_w;
        if (c.head) {
          // A partial splice adds the marshal stores, the rerouted head and
          // the stub's reloads; the residual call replaces the original one
          // exactly, so call words cancel.
          site.head_size = c.head->head_words;
          site.partial_words = nargs * (store_w + load_w) + c.head->head_words;
          site.partial_insns = 2 * nargs + c.head->head_len;
        }
      }
      sites_.push_back(site);
    }
  }
  site_begin_.push_back(static_cast<std::uint32_t>(sites_.size()));
}

std::span<const CallSite> ProbeFacts::call_sites(bc::MethodId m) const {
  const auto i = static_cast<std::size_t>(m);
  return std::span<const CallSite>(sites_).subspan(site_begin_[i],
                                                   site_begin_[i + 1] - site_begin_[i]);
}

DecisionProbe::DecisionProbe(const ProbeFacts& facts, const heur::InlineHeuristic& heuristic,
                             SiteOracle oracle, InlineLimits limits)
    : facts_(facts), heuristic_(heuristic), oracle_(std::move(oracle)), limits_(limits) {
  ITH_CHECK(oracle_ != nullptr, "DecisionProbe requires a site oracle");
}

void DecisionProbe::probe_method(bc::MethodId root, VerdictTrace& out) const {
  std::vector<ProbeDecision>& trace = out.decisions;
  trace.clear();
  InlineStats local;
  local.size_before_words = facts_.est_size(root);

  // Virtual replay state shared across the whole recursion: the evolving
  // body's estimated size and the scan pc within it. The real scan is a
  // single linear left-to-right walk over the (growing) code array, so a
  // preorder recursion into each spliced region with one shared pc cursor
  // reproduces it exactly. Instructions between call sites only advance
  // the cursor, so the walk jumps from site to site.
  int caller_words = facts_.est_size(root);
  std::size_t vpc = 0;
  std::vector<bc::MethodId> chain;

  const auto scan = [&](auto&& self, bc::MethodId m, int depth) -> void {
    std::size_t scanned = 0;  // instructions of m the cursor has passed
    for (const CallSite& site : facts_.call_sites(m)) {
      const auto j = static_cast<std::size_t>(site.pc);
      vpc += j - scanned;
      scanned = j + 1;
      ++local.sites_considered;
      const bc::MethodId callee = site.callee;

      // A partial splice leaves a residual call to the same callee behind
      // (origin site unchanged, depth + 1, callee appended to the chain),
      // which the real scan reaches right after the rerouted head. The
      // inner loop replays that splice-then-reconsider chain; `pushes`
      // tracks how deep into the chain this site carried us.
      int cur_depth = depth;
      int pushes = 0;
      while (true) {
        const auto occurrences =
            static_cast<int>(std::count(chain.begin(), chain.end(), callee));
        ProbeDecision& pd = trace.emplace_back();
        pd.root = root;
        pd.callee = callee;
        pd.call_pc = vpc;
        pd.depth = cur_depth;
        pd.callee_size = site.callee_size;
        pd.caller_size = caller_words;
        if (const char* rule =
                structural_rule(limits_, cur_depth, occurrences, caller_words, site)) {
          pd.rule = rule;
          ++local.sites_refused_structural;
          ++vpc;
          break;
        }

        // Profile lookup against the *origin* site: spliced instructions
        // keep their (origin method, origin pc) identity, which for a body
        // instruction j of method m is simply (m, j) — and a residual call
        // inherits the original site's identity verbatim.
        const SiteProfile profile = oracle_(m, site.pc);
        heur::InlineRequest req;
        req.caller = root;
        req.callee = callee;
        req.call_pc = vpc;
        req.callee_size = site.callee_size;
        req.caller_size = caller_words;
        req.depth = cur_depth;
        req.head_size = site.head_size;
        req.is_hot = profile.is_hot;
        req.site_count = profile.count;
        const heur::InlineDecision decision = heuristic_.decide(req);
        pd.head_size = req.head_size;
        pd.is_hot = req.is_hot;
        pd.site_count = req.site_count;
        pd.outcome = !decision.inline_it
                         ? ProbeDecision::Outcome::kRefusedHeuristic
                         : (decision.partial ? ProbeDecision::Outcome::kPartial
                                             : ProbeDecision::Outcome::kInlined);
        pd.rule = decision.rule;

        if (!decision.inline_it) {
          ++local.sites_refused_by_heuristic;
          ++vpc;
          break;
        }

        if (decision.partial) {
          ++local.sites_partially_inlined;
          local.max_depth_reached = std::max(local.max_depth_reached, cur_depth + 1);
          caller_words += site.partial_words;
          vpc += static_cast<std::size_t>(site.partial_insns);
          chain.push_back(callee);
          ++pushes;
          ++cur_depth;
          ++local.sites_considered;  // the residual call is scanned as a new site
          continue;
        }

        ++local.sites_inlined;
        local.max_depth_reached = std::max(local.max_depth_reached, cur_depth + 1);
        caller_words += site.full_words;
        vpc += static_cast<std::size_t>(site.full_insns);
        chain.push_back(callee);
        ++pushes;
        self(self, callee, cur_depth + 1);
        break;
      }
      while (pushes-- > 0) chain.pop_back();
    }
    vpc += facts_.num_insns(m) - scanned;
  };
  scan(scan, root, 0);

  local.size_after_words = caller_words;
  out.stats = local;
}

SignatureResult decision_signature(const bc::Program& prog, const heur::InlineParams& params,
                                   InlineLimits limits, const SignatureOptions& opts) {
  return decision_signature(prog, ProbeFacts(prog), params, limits, opts);
}

SignatureResult decision_signature(const bc::Program& prog, const ProbeFacts& facts,
                                   const heur::InlineParams& params, InlineLimits limits,
                                   const SignatureOptions& opts) {
  ITH_CHECK(facts.num_methods() == prog.num_methods(),
            "decision_signature: ProbeFacts were built for a different program");
  const heur::JikesHeuristic heuristic(params);
  SignatureResult result;

  // One scan level of one exploration path (frame index == inline depth;
  // frames[1..] are the chain): the call sites [next, end) still to visit
  // on behalf of `method`. A spliced body is a level walking all of its
  // method's call sites. The re-call a partial splice leaves behind is a
  // level of its own whose only site is the origin call: `method` is the
  // callee (it is on the chain now), and the site carries the origin
  // identity its profile lookups key on.
  struct Frame {
    bc::MethodId method;
    const CallSite* next;
    const CallSite* end;
  };
  // A committed hot/cold label of one origin call site. The site's address
  // in `facts` stands for its (method, pc) identity.
  struct Label {
    const CallSite* site;
    bool hot;
  };
  // One profile-consistent exploration path through a root's decision tree.
  // `labels` is the partial hot/cold labelling this path has committed to;
  // consultations where both labellings agree leave the site unlabelled so
  // a later divergent consultation of the same site can still fork.
  struct Path {
    std::vector<Frame> frames;
    std::vector<Label> labels;
    int caller_words = 0;
    std::uint64_t hash = codec::kFnv1aBasis;
  };

  // Three-valued verdict: refuse / inline fully / splice the guard head.
  struct Verdict {
    bool inline_it = false;
    bool partial = false;
    bool operator==(const Verdict& o) const {
      return inline_it == o.inline_it && partial == o.partial;
    }
  };

  const auto plain_frame = [&](bc::MethodId m) {
    const std::span<const CallSite> sites = facts.call_sites(m);
    return Frame{m, sites.data(), sites.data() + sites.size()};
  };

  // Paths still to explore form a LIFO stack in pending[0, live); slots
  // past `live` keep the storage of finished paths for the next fork.
  std::vector<Path> pending;
  std::size_t live = 0;
  Path cur;

  const auto verdict_for = [&](bc::MethodId root, const CallSite& site, int depth, bool is_hot) {
    heur::InlineRequest req;
    req.caller = root;
    req.callee = site.callee;
    req.callee_size = site.callee_size;
    req.caller_size = cur.caller_words;
    req.depth = depth;
    req.head_size = site.head_size;
    req.is_hot = is_hot;
    req.site_count = is_hot ? 1 : 0;  // fig3/fig4 ignore the count
    const heur::InlineDecision d = heuristic.decide(req);
    return Verdict{d.inline_it, d.partial};
  };

  // Consults the heuristic about `site` at `depth` from the current path
  // state, forking on hot/cold divergence of the (origin) site and hashing
  // the committed verdict. Forking copies `cur` but never mutates
  // cur.frames, so Frame references stay valid.
  const auto consult = [&](bc::MethodId root, const CallSite& site, int depth) {
    Verdict v;
    if (!opts.adaptive) {
      v = verdict_for(root, site, depth, /*is_hot=*/false);
    } else {
      const auto assigned = std::find_if(cur.labels.begin(), cur.labels.end(),
                                         [&](const Label& l) { return l.site == &site; });
      if (assigned != cur.labels.end()) {
        v = verdict_for(root, site, depth, assigned->hot);
      } else {
        const Verdict cold = verdict_for(root, site, depth, false);
        const Verdict hot = verdict_for(root, site, depth, true);
        if (cold != hot) {
          // The labelling of this origin site matters from here on:
          // explore both. The forked path re-executes this consultation
          // when popped (its cursor still points at the call), now
          // finding the site committed hot.
          ++result.forks;
          if (live == pending.size()) pending.emplace_back();
          Path& alt = pending[live++];
          alt.frames = cur.frames;  // copy-assignment reuses alt's storage
          alt.labels = cur.labels;
          alt.labels.push_back(Label{&site, true});
          alt.caller_words = cur.caller_words;
          alt.hash = codec::fnv1a_byte(cur.hash, kForkHot);
          cur.labels.push_back(Label{&site, false});
          cur.hash = codec::fnv1a_byte(cur.hash, kForkCold);
        }
        v = cold;
      }
    }
    ++result.consultations;
    cur.hash = codec::fnv1a_byte(
        cur.hash, !v.inline_it ? kConsultNo : (v.partial ? kConsultPartial : kConsultYes));
    return v;
  };

  std::uint64_t events = 0;
  std::uint64_t sig = codec::kFnv1aBasis;

  // Each method is a potential compilation root (the adaptive VM recompiles
  // any method the profiler promotes); the per-root decision trees are
  // hashed in method order.
  const auto num_methods = static_cast<bc::MethodId>(prog.num_methods());
  for (bc::MethodId root = 0; root < num_methods; ++root) {
    sig = codec::fnv1a_u64(sig, static_cast<std::uint64_t>(root));

    cur.frames.assign(1, plain_frame(root));
    cur.labels.clear();
    cur.caller_words = facts.est_size(root);
    cur.hash = codec::kFnv1aBasis;

    while (true) {
      while (!cur.frames.empty()) {
        // Re-fetched every step: splices push frames and completed levels
        // pop them, either of which invalidates references into the vector.
        Frame& f = cur.frames.back();
        if (f.next == f.end) {
          cur.frames.pop_back();
          continue;
        }
        const CallSite& site = *f.next;
        const int depth = static_cast<int>(cur.frames.size()) - 1;
        int occurrences = 0;
        for (std::size_t k = 1; k < cur.frames.size(); ++k) {
          occurrences += cur.frames[k].method == site.callee ? 1 : 0;
        }
        if (structural_rule(limits, depth, occurrences, cur.caller_words, site) != nullptr) {
          // Structural refusals are not consultations: no hash byte, the
          // call simply stays as emitted.
          ++f.next;
          continue;
        }

        if (++events > opts.max_events) return overflow_result(params, events, result.forks);

        const Verdict v = consult(root, site, depth);
        // Advance past the call only now (a fork above copied the frame
        // still pointing at it) and *before* pushing (the push may
        // reallocate, and the popped-back frame must resume after it).
        ++f.next;
        if (!v.inline_it) continue;
        if (v.partial) {
          cur.caller_words += site.partial_words;
          cur.frames.push_back(Frame{site.callee, &site, &site + 1});
        } else {
          cur.caller_words += site.full_words;
          cur.frames.push_back(plain_frame(site.callee));
        }
      }

      sig = codec::fnv1a_u64(sig, cur.hash);
      sig = codec::fnv1a_byte(sig, kPathEnd);
      if (live == 0) break;
      std::swap(cur, pending[--live]);
    }
  }

  result.value = sig;
  return result;
}

}  // namespace ith::opt
