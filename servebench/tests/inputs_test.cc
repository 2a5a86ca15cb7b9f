// Copyright 2026 The WWT Authors
//
// The benchmark's inputs are a pure function of the seed: the same seed
// must give byte-identical streams, and another seed different ones.

#include "inputs.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "corpus/workload.h"

namespace servebench {
namespace {

struct Streams {
  std::string order, arrivals, mutations;
};

Streams Generate(uint64_t seed) {
  const size_t n = RequestUniverse().size();
  return {StreamBytes(ClosedLoopOrder(seed, n, 4)),
          StreamBytes(OpenLoopSchedule(seed, n, 200, 5, 1.0)),
          StreamBytes(MutationStream(seed, 20, 10, 0, 2055, 500))};
}

TEST(InputsTest, SameSeedGivesByteIdenticalStreams) {
  const Streams a = Generate(17);
  const Streams b = Generate(17);
  EXPECT_FALSE(a.order.empty());
  EXPECT_FALSE(a.arrivals.empty());
  EXPECT_FALSE(a.mutations.empty());
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.mutations, b.mutations);
}

TEST(InputsTest, DifferentSeedGivesDifferentStreams) {
  const Streams a = Generate(17);
  const Streams b = Generate(18);
  EXPECT_NE(a.order, b.order);
  EXPECT_NE(a.arrivals, b.arrivals);
  EXPECT_NE(a.mutations, b.mutations);
}

TEST(InputsTest, UniverseIsEveryDistinctOrderedColumnSubset) {
  const std::vector<Request> universe = RequestUniverse();
  // 5 one-column, 37 two-column and 17 three-column queries give
  // 5 + 37 * 4 + 17 * 15 = 408 ordered subsets; 29 of them repeat a
  // column list another query already contributed.
  EXPECT_EQ(universe.size(), 379u);
  std::set<std::vector<std::string>> distinct;
  int table1 = 0;
  for (const Request& r : universe) {
    EXPECT_TRUE(distinct.insert(r.columns).second);
    table1 += r.table1 >= 0;
  }
  EXPECT_EQ(table1, static_cast<int>(wwt::Table1Workload().size()));
}

TEST(InputsTest, MutationStreamOnlyTouchesLiveTables) {
  const std::vector<Mutation> stream = MutationStream(3, 50, 20, 0, 100, 10);
  std::set<uint64_t> live;
  for (uint64_t id = 0; id < 100; ++id) live.insert(id);
  uint64_t next_id = 100;
  for (const Mutation& m : stream) {
    switch (m.kind) {
      case MutationKind::kAdd:
        EXPECT_EQ(m.target, next_id++);
        live.insert(m.target);
        break;
      case MutationKind::kTombstone:
        EXPECT_EQ(live.erase(m.target), 1u);
        break;
      default:
        EXPECT_EQ(live.count(m.target), 1u);
    }
    EXPECT_LT(m.source, 10u);
  }
}

TEST(InputsTest, ZipfMixIsFixedAndOnlyItsOrderIsSeeded) {
  std::vector<uint32_t> a = ZipfMix(5, 379, 1.0, 20000);
  std::vector<uint32_t> b = ZipfMix(6, 379, 1.0, 20000);
  ASSERT_EQ(a.size(), 20000u);
  EXPECT_NE(a, b);
  std::vector<int> counts(379, 0);
  for (uint32_t r : a) ++counts[r];
  // Under Zipf(1) over 379 ranks the most popular request takes ~15%
  // of draws; a uniform draw would give it ~0.3%.
  EXPECT_GT(*std::max_element(counts.begin(), counts.end()), 2900);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace servebench
