#include "runtime/profile.hpp"

#include "support/error.hpp"

namespace ith::rt {

ProfileData::ProfileData(std::size_t num_methods) : methods_(num_methods), sites_(num_methods) {}

void ProfileData::out_of_range() {
  detail::raise(__FILE__, __LINE__, "profile: method id out of range");
}

std::uint64_t ProfileData::site_count(bc::MethodId origin_method, std::int32_t origin_pc) const {
  if (origin_method < 0 || origin_pc < 0) return 0;
  const std::vector<std::uint64_t>& counts = sites_[check(origin_method)];
  const auto pc = static_cast<std::size_t>(origin_pc);
  return pc < counts.size() ? counts[pc] : 0;
}

void ProfileData::hot_sites(std::uint64_t threshold, std::vector<std::uint64_t>& out) const {
  out.clear();
  for (std::size_t m = 0; m < sites_.size(); ++m) {
    for (std::size_t pc = 0; pc < sites_[m].size(); ++pc) {
      if (sites_[m][pc] >= threshold) {
        out.push_back(site_key(static_cast<bc::MethodId>(m), static_cast<std::int32_t>(pc)));
      }
    }
  }
}

void ProfileData::clear() {
  for (auto& c : methods_) c = MethodCounters{};
  for (auto& counts : sites_) counts.clear();
}

}  // namespace ith::rt
