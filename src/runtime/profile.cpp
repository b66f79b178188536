#include "runtime/profile.hpp"

#include "support/error.hpp"

namespace ith::rt {

ProfileData::ProfileData(std::size_t num_methods) : methods_(num_methods), sites_(num_methods) {}

std::size_t ProfileData::check(bc::MethodId m) const {
  ITH_CHECK(m >= 0 && static_cast<std::size_t>(m) < methods_.size(),
            "profile: method id out of range");
  return static_cast<std::size_t>(m);
}

void ProfileData::record_call_site(bc::MethodId origin_method, std::int32_t origin_pc) {
  if (origin_method < 0 || origin_pc < 0) return;  // synthetic: nothing to attribute
  std::vector<std::uint64_t>& counts = sites_[check(origin_method)];
  const auto pc = static_cast<std::size_t>(origin_pc);
  if (pc >= counts.size()) counts.resize(pc + 1, 0);
  ++counts[pc];
}

std::uint64_t ProfileData::hot_score(bc::MethodId m) const {
  const auto& c = methods_[check(m)];
  return c.invocations + c.back_edges;
}

std::uint64_t ProfileData::site_count(bc::MethodId origin_method, std::int32_t origin_pc) const {
  if (origin_method < 0 || origin_pc < 0) return 0;
  const std::vector<std::uint64_t>& counts = sites_[check(origin_method)];
  const auto pc = static_cast<std::size_t>(origin_pc);
  return pc < counts.size() ? counts[pc] : 0;
}

void ProfileData::clear() {
  for (auto& c : methods_) c = MethodCounters{};
  for (auto& counts : sites_) counts.clear();
}

}  // namespace ith::rt
