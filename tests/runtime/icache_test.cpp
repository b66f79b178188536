#include "runtime/icache.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace ith::rt {
namespace {

/// Hits among `addresses`, probed in order.
std::size_t count_hits(ICache& c, const std::vector<std::uint64_t>& addresses) {
  std::size_t hits = 0;
  for (const std::uint64_t a : addresses) {
    if (c.probe(a)) ++hits;
  }
  return hits;
}

TEST(ICache, FirstTouchMissesThenHits) {
  ICache c(1024, 64, 2);
  EXPECT_FALSE(c.probe(0));
  EXPECT_TRUE(c.probe(0));
  EXPECT_TRUE(c.probe(63));   // same line
  EXPECT_FALSE(c.probe(64));  // next line
  EXPECT_TRUE(c.probe_line(1));
  EXPECT_FALSE(c.probe_line(2));
}

TEST(ICache, GeometryValidation) {
  EXPECT_THROW(ICache(100, 64, 2), Error);   // not divisible into sets
  EXPECT_THROW(ICache(1024, 60, 2), Error);  // line not power of two
  EXPECT_THROW(ICache(64, 64, 2), Error);    // smaller than one set
  EXPECT_THROW(ICache(768, 64, 3), Error);   // associativity not a power of two
  EXPECT_THROW(ICache(1024, 64, 0), Error);  // no ways
  EXPECT_NO_THROW(ICache(1024, 64, 2));
}

TEST(ICache, SetCountComputed) {
  ICache c(8192, 64, 4);
  EXPECT_EQ(c.num_sets(), 32u);
  EXPECT_EQ(c.associativity(), 4u);
  EXPECT_EQ(c.line_bytes(), 64u);
}

TEST(ICache, LruEvictsOldestWay) {
  // Direct-map-like pressure on one set of a 2-way cache: addresses that
  // alias to set 0 are multiples of sets*line.
  ICache c(1024, 64, 2);  // 8 sets
  const std::uint64_t stride = 8 * 64;
  EXPECT_FALSE(c.probe(0 * stride));
  EXPECT_FALSE(c.probe(1 * stride));
  EXPECT_TRUE(c.probe(0 * stride));   // refresh way 0
  EXPECT_FALSE(c.probe(2 * stride));  // evicts line 1 (older)
  EXPECT_TRUE(c.probe(0 * stride));   // still resident
  EXPECT_FALSE(c.probe(1 * stride));  // was evicted
}

TEST(ICache, CapacityMissBehaviour) {
  ICache c(1024, 64, 2);  // 16 lines capacity
  std::vector<std::uint64_t> sweep;
  for (std::uint64_t line = 0; line < 32; ++line) sweep.push_back(line * 64);
  EXPECT_EQ(count_hits(c, sweep), 0u);  // working set double the capacity: all miss
  std::vector<std::uint64_t> twice;
  for (std::uint64_t line = 0; line < 8; ++line) {
    twice.push_back(line * 64);
    twice.push_back(line * 64);
  }
  EXPECT_EQ(count_hits(c, twice), 8u);  // small working set: second touches hit
}

TEST(ICache, FlushInvalidatesEverything) {
  ICache c(1024, 64, 2);
  c.probe(0);
  EXPECT_TRUE(c.probe(0));
  c.flush();
  EXPECT_FALSE(c.probe(0));
}

TEST(ICache, DistinctTagsSameSetCoexistUpToAssoc) {
  ICache c(2048, 64, 4);  // 8 sets, 4 ways
  const std::uint64_t stride = 8 * 64;
  for (std::uint64_t i = 0; i < 4; ++i) c.probe(i * stride);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(c.probe(i * stride)) << "way " << i;
  }
}

/// The original stamp-based LRU: every way carries its last-touch stamp and
/// a miss fills the way with the smallest one, so empty ways (stamp 0) fill
/// first. ICache must give the same hit or miss on every probe.
class StampLru {
 public:
  StampLru(std::size_t total_bytes, std::size_t line_bytes, std::size_t assoc)
      : line_bytes_(line_bytes),
        assoc_(assoc),
        sets_(total_bytes / (line_bytes * assoc)),
        tags_(sets_ * assoc, ~0ULL),
        stamps_(sets_ * assoc, 0) {}

  bool probe(std::uint64_t address) {
    const std::uint64_t line = address / line_bytes_;
    const std::size_t base = static_cast<std::size_t>(line % sets_) * assoc_;
    const std::uint64_t tag = line / sets_;
    ++stamp_;
    std::size_t victim = 0;
    for (std::size_t way = 0; way < assoc_; ++way) {
      if (tags_[base + way] == tag) {
        stamps_[base + way] = stamp_;
        return true;
      }
      if (stamps_[base + way] < stamps_[base + victim]) victim = way;
    }
    tags_[base + victim] = tag;
    stamps_[base + victim] = stamp_;
    return false;
  }

 private:
  std::size_t line_bytes_, assoc_, sets_;
  std::vector<std::uint64_t> tags_, stamps_;
  std::uint64_t stamp_ = 0;
};

struct Geometry {
  const char* name;
  std::size_t bytes, line, assoc;
};

// P4 and PowerPC as in runtime/machine.cpp, plus both extremes.
constexpr Geometry kGeometries[] = {
    {"p4", 8192, 64, 4},
    {"ppc", 2048, 32, 8},
    {"direct_mapped", 1024, 64, 1},
    {"fully_associative", 512, 32, 16},
};

/// Byte addresses of `lines` random lines drawn from 4x the capacity, at a
/// random offset inside each line.
std::vector<std::uint64_t> random_stream(const Geometry& g, std::uint64_t seed) {
  Pcg32 rng(seed);
  const std::int64_t span = static_cast<std::int64_t>(4 * g.bytes / g.line);
  std::vector<std::uint64_t> out(20000);
  for (std::uint64_t& a : out) {
    a = static_cast<std::uint64_t>(rng.range(0, span - 1)) * g.line +
        static_cast<std::uint64_t>(rng.range(0, static_cast<std::int64_t>(g.line) - 1));
  }
  return out;
}

/// An interpreter-shaped stream: loops of 1 to 2x-capacity consecutive lines,
/// each repeated a few times, anywhere in a region 3x the capacity.
std::vector<std::uint64_t> loop_stream(const Geometry& g, std::uint64_t seed) {
  Pcg32 rng(seed);
  const std::int64_t capacity = static_cast<std::int64_t>(g.bytes / g.line);
  std::vector<std::uint64_t> out;
  while (out.size() < 20000) {
    const std::int64_t start = rng.range(0, 3 * capacity);
    const std::int64_t len = rng.range(1, 2 * capacity);
    for (std::int64_t rep = rng.range(1, 6); rep > 0; --rep) {
      for (std::int64_t l = start; l < start + len; ++l) {
        out.push_back(static_cast<std::uint64_t>(l) * g.line);
      }
    }
  }
  return out;
}

TEST(ICache, MatchesStampLruOnEveryProbe) {
  for (const Geometry& g : kGeometries) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      for (const bool loops : {false, true}) {
        const std::vector<std::uint64_t> stream =
            loops ? loop_stream(g, seed) : random_stream(g, seed);
        ICache cache(g.bytes, g.line, g.assoc);
        StampLru oracle(g.bytes, g.line, g.assoc);
        std::size_t hits = 0;
        for (std::size_t i = 0; i < stream.size(); ++i) {
          const bool want = oracle.probe(stream[i]);
          ASSERT_EQ(cache.probe(stream[i]), want)
              << g.name << (loops ? " loops" : " random") << " seed " << seed << " probe " << i;
          if (want) ++hits;
        }
        // Both outcomes occur, so the comparison covers hits and evictions.
        EXPECT_GT(hits, 0u) << g.name;
        EXPECT_LT(hits, stream.size()) << g.name;
      }
    }
  }
}

}  // namespace
}  // namespace ith::rt
