#include "runtime/icache.hpp"

#include <bit>

#include "support/error.hpp"

namespace ith::rt {

ICache::ICache(std::size_t total_bytes, std::size_t line_bytes, std::size_t assoc)
    : assoc_(assoc) {
  ITH_CHECK(line_bytes > 0 && std::has_single_bit(line_bytes), "line size must be a power of two");
  ITH_CHECK(assoc > 0 && std::has_single_bit(assoc), "associativity must be a power of two");
  ITH_CHECK(total_bytes >= line_bytes * assoc, "cache smaller than one set");
  ITH_CHECK(total_bytes % (line_bytes * assoc) == 0, "cache size not divisible into sets");
  const std::size_t sets = total_bytes / (line_bytes * assoc);
  ITH_CHECK(std::has_single_bit(sets), "set count must be a power of two");
  set_mask_ = sets - 1;
  line_shift_ = static_cast<std::uint64_t>(std::countr_zero(line_bytes));
  assoc_shift_ = static_cast<std::size_t>(std::countr_zero(assoc));
  lines_.assign(sets * assoc_, kInvalid);
}

bool ICache::probe_older(std::uint64_t* ways, std::uint64_t line) {
  std::size_t way = 1;
  while (way < assoc_ && ways[way] != line) ++way;
  const bool hit = way < assoc_;
  if (!hit) way = assoc_ - 1;  // evict the LRU line (or an empty tail way)
  for (; way > 0; --way) ways[way] = ways[way - 1];
  ways[0] = line;
  return hit;
}

void ICache::flush() { lines_.assign(lines_.size(), kInvalid); }

}  // namespace ith::rt
