#include "tuner/decision_trie.hpp"

#include "resilience/fault.hpp"
#include "support/codec.hpp"
#include "support/error.hpp"

namespace ith::tuner {

namespace {

bool same_result(const BenchmarkResult& a, const BenchmarkResult& b) {
  return a.name == b.name && a.running_cycles == b.running_cycles &&
         a.total_cycles == b.total_cycles && a.compile_cycles == b.compile_cycles &&
         a.outcome.kind == b.outcome.kind && a.attempts == b.attempts;
}

}  // namespace

std::uint64_t run_key(const CompileTrace& trace) {
  std::uint64_t h = codec::fnv1a("ith-run-key-v1");
  for (const vm::CompileEvent& e : trace) {
    h = resilience::mix_keys(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.method)));
    h = resilience::mix_keys(h, static_cast<std::uint64_t>(e.tier));
    h = resilience::mix_keys(h, e.hot_sites.size());
    for (const std::uint64_t site : e.hot_sites) h = resilience::mix_keys(h, site);
    h = resilience::mix_keys(h, codec::fnv1a(e.verdicts));
  }
  return h;
}

const DecisionTrie::Leaf* DecisionTrie::find(const Verdicts& verdicts) const {
  const Node* node = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    node = root_.get();
  }
  while (node != nullptr) {
    if (node->leaf != nullptr) return node->leaf.get();
    const std::string v = verdicts(node->method, node->hot_sites);
    std::lock_guard<std::mutex> lock(mu_);
    node = node->first_child.get();
    while (node != nullptr && node->verdicts != v) node = node->next_sibling.get();
  }
  return nullptr;
}

std::unique_ptr<DecisionTrie::Node> DecisionTrie::make_node(const CompileTrace& trace,
                                                            std::size_t k,
                                                            const BenchmarkResult& result) {
  auto node = std::make_unique<Node>();
  bytes_ += sizeof(Node);
  if (k == trace.size()) {
    node->leaf = std::make_unique<const Leaf>(Leaf{result, run_key(trace)});
    bytes_ += sizeof(Leaf);
  } else {
    node->method = trace[k].method;
    node->tier = trace[k].tier;
    node->hot_sites = trace[k].hot_sites;
    bytes_ += node->hot_sites.size() * sizeof(std::uint64_t);
  }
  return node;
}

DecisionTrie::Inserted DecisionTrie::insert(const CompileTrace& trace,
                                            const BenchmarkResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t before = bytes_;
  if (root_ == nullptr) root_ = make_node(trace, 0, result);
  Node* node = root_.get();
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const vm::CompileEvent& e = trace[k];
    ITH_CHECK(node->leaf == nullptr && node->method == e.method && node->tier == e.tier &&
                  node->hot_sites == e.hot_sites,
              "decision trie: a recorded path continues with a different compile event");
    Node* child = node->first_child.get();
    while (child != nullptr && child->verdicts != e.verdicts) child = child->next_sibling.get();
    if (child == nullptr) {
      // Built whole before it is linked: an insert that throws later
      // leaves no half-built node behind.
      std::unique_ptr<Node> fresh = make_node(trace, k + 1, result);
      fresh->verdicts = e.verdicts;
      bytes_ += e.verdicts.size();
      fresh->next_sibling = std::move(node->first_child);
      node->first_child = std::move(fresh);
      child = node->first_child.get();
    }
    node = child;
  }
  ITH_CHECK(node->leaf != nullptr && same_result(node->leaf->result, result),
            "decision trie: a recorded path ends in a different result");
  return Inserted{node->leaf.get(), bytes_ - before};
}

std::size_t DecisionTrie::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace ith::tuner
