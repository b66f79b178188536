#include "opt/body_memo.hpp"

#include <algorithm>

#include "support/codec.hpp"
#include "support/error.hpp"

namespace ith::opt {

namespace {

/// Bookkeeping charged to every entry on top of its vectors and key bytes:
/// the hash node, the LRU node and the shared body's control block.
constexpr std::size_t kEntryOverhead = 128;

// Body::code's flag bits, above the opcode.
constexpr std::uint8_t kHasA = 0x40;
constexpr std::uint8_t kHasB = 0x80;
static_assert(bc::kNumOps <= kHasA, "opcodes must leave the flag bits free");

void put_zigzag(std::vector<std::uint8_t>& out, std::int32_t v) {
  std::uint32_t u = (static_cast<std::uint32_t>(v) << 1) ^ static_cast<std::uint32_t>(v >> 31);
  while (u >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(u | 0x80));
    u >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(u));
}

std::int32_t get_zigzag(const std::uint8_t*& p) {
  std::uint32_t u = 0;
  for (int shift = 0;; shift += 7) {
    const std::uint8_t byte = *p++;
    u |= static_cast<std::uint32_t>(byte & 0x7f) << shift;
    if (byte < 0x80) break;
  }
  return static_cast<std::int32_t>((u >> 1) ^ (0u - (u & 1)));
}

std::shared_ptr<const BodyMemo::Body> compact(const OptimizeResult& result) {
  auto body = std::make_shared<BodyMemo::Body>();
  const std::vector<bc::Instruction>& code = result.body.method.code();
  body->code.reserve(code.size() * 2);
  for (const bc::Instruction& insn : code) {
    body->code.push_back(static_cast<std::uint8_t>(static_cast<std::uint8_t>(insn.op) |
                                                   (insn.a != 0 ? kHasA : 0) |
                                                   (insn.b != 0 ? kHasB : 0)));
    if (insn.a != 0) put_zigzag(body->code, insn.a);
    if (insn.b != 0) put_zigzag(body->code, insn.b);
  }
  body->code.shrink_to_fit();
  body->num_insns = static_cast<std::uint32_t>(code.size());
  body->num_locals = result.body.method.num_locals();
  body->stats = result.stats;
  const std::vector<InstrMeta>& meta = result.body.meta;
  for (std::size_t i = 0; i < meta.size(); ++i) {
    const InstrMeta& m = meta[i];
    if (!body->origins.empty()) {
      // Extends the last run when this instruction is its next one.
      const BodyMemo::Body::OriginRun& run = body->origins.back();
      const auto offset = static_cast<std::int32_t>(i - run.start);
      if (m.origin_method == run.method &&
          m.origin_pc == (run.pc < 0 ? run.pc : run.pc + offset)) {
        continue;
      }
    }
    body->origins.push_back({static_cast<std::uint32_t>(i), m.origin_method, m.origin_pc});
  }
  body->origins.shrink_to_fit();
  return body;
}

}  // namespace

std::vector<bc::Instruction> BodyMemo::Body::decode() const {
  std::vector<bc::Instruction> out(num_insns);
  const std::uint8_t* p = code.data();
  for (bc::Instruction& insn : out) {
    const std::uint8_t head = *p++;
    insn.op = static_cast<bc::Op>(head & (kHasA - 1));
    if ((head & kHasA) != 0) insn.a = get_zigzag(p);
    if ((head & kHasB) != 0) insn.b = get_zigzag(p);
  }
  ITH_ASSERT(p == code.data() + code.size(), "memo entry code length mismatch");
  return out;
}

std::vector<std::pair<bc::MethodId, std::int32_t>> BodyMemo::Body::expand_origins() const {
  std::vector<std::pair<bc::MethodId, std::int32_t>> out;
  out.reserve(num_insns);
  for (std::size_t r = 0; r < origins.size(); ++r) {
    const OriginRun& run = origins[r];
    const std::size_t end = r + 1 < origins.size() ? origins[r + 1].start : num_insns;
    for (std::size_t i = run.start; i < end; ++i) {
      out.emplace_back(run.method,
                       run.pc < 0 ? run.pc : run.pc + static_cast<std::int32_t>(i - run.start));
    }
  }
  return out;
}

std::size_t BodyMemo::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = codec::fnv1a_u64(codec::kFnv1aBasis, static_cast<std::uint64_t>(k.program));
  h = codec::fnv1a_u64(h, static_cast<std::uint64_t>(k.method));
  for (const char c : k.verdicts) h = codec::fnv1a_byte(h, static_cast<unsigned char>(c));
  return static_cast<std::size_t>(h);
}

BodyMemo::BodyMemo(std::vector<const bc::Program*> programs, PipelineDesc pipeline,
                   InlineLimits limits, obs::Context* obs, std::size_t budget_bytes)
    : pipeline_(std::move(pipeline)), limits_(limits), budget_(budget_bytes) {
  programs_.reserve(programs.size());
  for (const bc::Program* p : programs) {
    programs_.push_back(std::make_unique<Program>());
    programs_.back()->prog = p;
  }
  if (obs != nullptr) {
    hits_counter_ = &obs->counter("opt.memo_hits");
    misses_counter_ = &obs->counter("opt.memo_misses");
    evictions_counter_ = &obs->counter("opt.memo_evictions");
  }
}

bool BodyMemo::supports(const PipelineDesc& pipeline) {
  return std::count(pipeline.setup.begin(), pipeline.setup.end(), "inline") <= 1 &&
         std::count(pipeline.fixpoint.begin(), pipeline.fixpoint.end(), "inline") == 0;
}

bool BodyMemo::serves(const PipelineDesc& pipeline, const InlineLimits& limits) const {
  return pipeline == pipeline_ && limits == limits_;
}

int BodyMemo::program_index(const bc::Program& prog) const {
  for (std::size_t i = 0; i < programs_.size(); ++i) {
    if (programs_[i]->prog == &prog) return static_cast<int>(i);
  }
  return -1;
}

const ProbeFacts& BodyMemo::facts(int index) {
  Program& p = *programs_.at(static_cast<std::size_t>(index));
  std::call_once(p.once, [&p] { p.facts = std::make_unique<const ProbeFacts>(*p.prog); });
  return *p.facts;
}

std::shared_ptr<const BodyMemo::Body> BodyMemo::find(const Key& key) {
  std::shared_ptr<const Body> body;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
    } else {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      body = it->second.body;
    }
  }
  obs::Counter* counter = body != nullptr ? hits_counter_ : misses_counter_;
  if (counter != nullptr) counter->add(1);
  return body;
}

void BodyMemo::insert(const Key& key, const OptimizeResult& result) {
  std::shared_ptr<const Body> body = compact(result);
  const std::size_t bytes = kEntryOverhead + sizeof(Body) + key.verdicts.size() +
                            body->code.capacity() +
                            body->origins.capacity() * sizeof(Body::OriginRun);
  if (bytes > budget_) return;  // would evict everything and still not fit

  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, fresh] = entries_.try_emplace(key);
    if (!fresh) return;
    lru_.push_front(&it->first);
    it->second = Entry{std::move(body), bytes, lru_.begin()};
    stats_.bytes += bytes;
    while (stats_.bytes > budget_) {
      const auto victim = entries_.find(*lru_.back());
      stats_.bytes -= victim->second.bytes;
      lru_.pop_back();
      entries_.erase(victim);
      ++evicted;
    }
    stats_.evictions += evicted;
    stats_.entries = entries_.size();
  }
  if (evicted > 0 && evictions_counter_ != nullptr) evictions_counter_->add(evicted);
}

BodyMemo::Stats BodyMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string verdict_bytes(const std::vector<ProbeDecision>& decisions) {
  std::string bytes;
  bytes.reserve(decisions.size());
  using Outcome = ProbeDecision::Outcome;
  for (const ProbeDecision& d : decisions) {
    // A structural refusal follows from the verdicts before it, as the scan
    // itself does, so it adds no byte.
    if (d.outcome == Outcome::kRefusedStructural) continue;
    bytes.push_back(static_cast<char>(
        d.outcome == Outcome::kRefusedHeuristic ? 0 : (d.outcome == Outcome::kPartial ? 2 : 1)));
  }
  return bytes;
}

}  // namespace ith::opt
