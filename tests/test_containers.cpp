// Functional tests for the transactional containers, exercised through real
// transactions. Parameterized over every runtime configuration so that
// barrier elision provably never changes semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "containers/containers.hpp"
#include "stm/stm.hpp"
#include "support/random.hpp"

namespace cstm {
namespace {

std::vector<TxConfig> all_configs() {
  return {
      TxConfig::baseline(),
      TxConfig::runtime_rw(AllocLogKind::kTree),
      TxConfig::runtime_rw(AllocLogKind::kArray),
      TxConfig::runtime_rw(AllocLogKind::kFilter),
      TxConfig::runtime_w(AllocLogKind::kTree),
      TxConfig::runtime_heap_w(AllocLogKind::kArray),
      TxConfig::compiler(),
      TxConfig::counting(),
  };
}

std::string config_name(std::size_t i) {
  static const char* names[] = {"baseline",    "rw_tree",  "rw_array",
                                "rw_filter",   "w_tree",   "heapw_array",
                                "compiler",    "counting"};
  return names[i];
}

class ContainersAllConfigs : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    set_global_config(all_configs()[GetParam()]);
    stats_reset();
  }
  void TearDown() override { set_global_config(TxConfig::baseline()); }
};

TEST_P(ContainersAllConfigs, ListInsertRemoveContains) {
  TxList<std::uint64_t> list;
  for (std::uint64_t v : {5u, 1u, 9u, 3u, 7u}) {
    atomic([&](Tx& tx) { EXPECT_TRUE(list.insert(tx, v)); });
  }
  atomic([&](Tx& tx) {
    EXPECT_FALSE(list.insert(tx, 5));  // duplicate
    EXPECT_EQ(list.size(tx), 5u);
    EXPECT_TRUE(list.contains(tx, 3));
    EXPECT_FALSE(list.contains(tx, 4));
  });
  atomic([&](Tx& tx) { EXPECT_TRUE(list.remove(tx, 3)); });
  atomic([&](Tx& tx) {
    EXPECT_FALSE(list.contains(tx, 3));
    EXPECT_FALSE(list.remove(tx, 3));
    EXPECT_EQ(list.size(tx), 4u);
  });
}

TEST_P(ContainersAllConfigs, ListIterationIsSorted) {
  TxList<std::uint64_t> list;
  atomic([&](Tx& tx) {
    for (std::uint64_t v : {4u, 2u, 8u, 6u}) list.insert(tx, v);
  });
  std::vector<std::uint64_t> seen;
  atomic([&](Tx& tx) {
    seen.clear();  // retry-safe
    typename TxList<std::uint64_t>::Iterator it;  // inside the atomic block
    list.iter_reset(tx, &it);
    while (list.iter_has_next(tx, &it)) seen.push_back(list.iter_next(tx, &it));
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{2, 4, 6, 8}));
}

TEST_P(ContainersAllConfigs, ListAbortRollsBackInsert) {
  TxList<std::uint64_t> list;
  atomic([&](Tx& tx) { list.insert(tx, 1); });
  atomic([&](Tx& tx) {
    list.insert(tx, 2);
    abort_tx();
  });
  atomic([&](Tx& tx) {
    EXPECT_FALSE(list.contains(tx, 2));
    EXPECT_EQ(list.size(tx), 1u);
  });
}

TEST_P(ContainersAllConfigs, ListDuplicatesAllowedMode) {
  TxList<std::uint64_t> list(/*allow_duplicates=*/true);
  atomic([&](Tx& tx) {
    EXPECT_TRUE(list.insert(tx, 5));
    EXPECT_TRUE(list.insert(tx, 5));
    EXPECT_EQ(list.size(tx), 2u);
  });
}

TEST_P(ContainersAllConfigs, QueueFifoOrder) {
  TxQueue<std::uint64_t> q;
  atomic([&](Tx& tx) {
    for (std::uint64_t i = 0; i < 10; ++i) q.push(tx, i);
  });
  std::vector<std::uint64_t> out;
  atomic([&](Tx& tx) {
    out.clear();
    std::uint64_t v = 0;
    while (q.pop(tx, &v)) out.push_back(v);
  });
  ASSERT_EQ(out.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
  atomic([&](Tx& tx) { EXPECT_TRUE(q.empty(tx)); });
}

TEST_P(ContainersAllConfigs, QueueAbortRollsBackPop) {
  TxQueue<std::uint64_t> q;
  atomic([&](Tx& tx) { q.push(tx, 42); });
  atomic([&](Tx& tx) {
    std::uint64_t v = 0;
    EXPECT_TRUE(q.pop(tx, &v));
    abort_tx();
  });
  atomic([&](Tx& tx) {
    std::uint64_t v = 0;
    EXPECT_TRUE(q.pop(tx, &v));
    EXPECT_EQ(v, 42u);
  });
}

TEST_P(ContainersAllConfigs, VectorPushGrowAt) {
  TxVector<std::uint64_t> vec(2);
  atomic([&](Tx& tx) {
    for (std::uint64_t i = 0; i < 100; ++i) vec.push_back(tx, i * 3);
  });
  atomic([&](Tx& tx) {
    EXPECT_EQ(vec.size(tx), 100u);
    for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(vec.at(tx, i), i * 3);
  });
  atomic([&](Tx& tx) {
    vec.set(tx, 50, 999);
    EXPECT_EQ(vec.at(tx, 50), 999u);
    EXPECT_EQ(vec.pop_back(tx), 99u * 3);
    EXPECT_EQ(vec.size(tx), 99u);
  });
}

TEST_P(ContainersAllConfigs, HashtableInsertFindErase) {
  TxHashtable<std::uint64_t, std::uint64_t> table(64);
  atomic([&](Tx& tx) {
    for (std::uint64_t k = 0; k < 200; ++k) {
      EXPECT_TRUE(table.insert(tx, k, k * k));
    }
    EXPECT_FALSE(table.insert(tx, 7, 0));  // duplicate key
  });
  atomic([&](Tx& tx) {
    std::uint64_t v = 0;
    EXPECT_TRUE(table.find(tx, 13, &v));
    EXPECT_EQ(v, 169u);
    EXPECT_FALSE(table.find(tx, 1000, &v));
    EXPECT_EQ(table.size(tx), 200u);
  });
  atomic([&](Tx& tx) {
    EXPECT_TRUE(table.erase(tx, 13));
    EXPECT_FALSE(table.erase(tx, 13));
    EXPECT_FALSE(table.contains(tx, 13));
  });
}

TEST_P(ContainersAllConfigs, HashtablePutOverwrites) {
  TxHashtable<std::uint64_t, std::uint64_t> table(16);
  atomic([&](Tx& tx) {
    table.put(tx, 1, 10);
    table.put(tx, 1, 20);
    std::uint64_t v = 0;
    EXPECT_TRUE(table.find(tx, 1, &v));
    EXPECT_EQ(v, 20u);
    EXPECT_EQ(table.size(tx), 1u);
  });
}

TEST_P(ContainersAllConfigs, MapOrderedOperations) {
  TxMap<std::uint64_t, std::uint64_t> map;
  atomic([&](Tx& tx) {
    for (std::uint64_t k = 0; k < 512; ++k) {  // sequential keys: worst case
      EXPECT_TRUE(map.insert(tx, k, k + 1000));
    }
  });
  atomic([&](Tx& tx) {
    EXPECT_EQ(map.size(tx), 512u);
    std::uint64_t v = 0;
    EXPECT_TRUE(map.find(tx, 300, &v));
    EXPECT_EQ(v, 1300u);
    EXPECT_FALSE(map.insert(tx, 300, 0));
    EXPECT_FALSE(map.find(tx, 512, &v));
  });
  // In-order traversal must be sorted (treap invariant).
  std::vector<std::uint64_t> keys;
  map.for_each_sequential([&](std::uint64_t k, std::uint64_t) { keys.push_back(k); });
  EXPECT_EQ(keys.size(), 512u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST_P(ContainersAllConfigs, MapEraseKeepsOrder) {
  TxMap<std::uint64_t, std::uint64_t> map;
  atomic([&](Tx& tx) {
    for (std::uint64_t k = 0; k < 256; ++k) map.insert(tx, k, k);
  });
  atomic([&](Tx& tx) {
    for (std::uint64_t k = 0; k < 256; k += 2) EXPECT_TRUE(map.erase(tx, k));
    EXPECT_FALSE(map.erase(tx, 0));
  });
  atomic([&](Tx& tx) {
    EXPECT_EQ(map.size(tx), 128u);
    for (std::uint64_t k = 0; k < 256; ++k) {
      EXPECT_EQ(map.contains(tx, k), k % 2 == 1) << k;
    }
  });
  std::vector<std::uint64_t> keys;
  map.for_each_sequential([&](std::uint64_t k, std::uint64_t) { keys.push_back(k); });
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST_P(ContainersAllConfigs, MapFindFloor) {
  TxMap<std::uint64_t, std::uint64_t> map;
  atomic([&](Tx& tx) {
    for (std::uint64_t k : {10u, 20u, 30u}) map.insert(tx, k, k * 10);
  });
  atomic([&](Tx& tx) {
    std::uint64_t k = 0, v = 0;
    EXPECT_TRUE(map.find_floor(tx, 25, &k, &v));
    EXPECT_EQ(k, 20u);
    EXPECT_EQ(v, 200u);
    EXPECT_TRUE(map.find_floor(tx, 30, &k, &v));
    EXPECT_EQ(k, 30u);
    EXPECT_FALSE(map.find_floor(tx, 5, &k, &v));
  });
}

TEST_P(ContainersAllConfigs, MapPutInsertsOrUpdates) {
  TxMap<std::uint64_t, std::uint64_t> map;
  atomic([&](Tx& tx) {
    map.put(tx, 7, 1);
    map.put(tx, 7, 2);
    std::uint64_t v = 0;
    EXPECT_TRUE(map.find(tx, 7, &v));
    EXPECT_EQ(v, 2u);
    EXPECT_EQ(map.size(tx), 1u);
  });
}

TEST_P(ContainersAllConfigs, MapAbortRollsBackStructuralChange) {
  TxMap<std::uint64_t, std::uint64_t> map;
  atomic([&](Tx& tx) {
    for (std::uint64_t k = 0; k < 64; ++k) map.insert(tx, k * 2, k);
  });
  atomic([&](Tx& tx) {
    map.insert(tx, 33, 33);
    map.erase(tx, 10);
    abort_tx();
  });
  atomic([&](Tx& tx) {
    EXPECT_FALSE(map.contains(tx, 33));
    EXPECT_TRUE(map.contains(tx, 10));
    EXPECT_EQ(map.size(tx), 64u);
  });
}

TEST_P(ContainersAllConfigs, HeapExtractsInPriorityOrder) {
  TxHeap<std::uint64_t> heap(2);
  Xoshiro256 rng(99);
  std::multiset<std::uint64_t> reference;
  atomic([&](Tx& tx) {
    for (int i = 0; i < 100; ++i) {
      // Retry-safe only because the draw sequence restarts identically.
      heap.push(tx, i * 37 % 101);
    }
  });
  for (int i = 0; i < 100; ++i) reference.insert(i * 37 % 101);
  std::vector<std::uint64_t> drained;
  atomic([&](Tx& tx) {
    drained.clear();
    std::uint64_t v = 0;
    while (heap.pop(tx, &v)) drained.push_back(v);
  });
  ASSERT_EQ(drained.size(), 100u);
  EXPECT_TRUE(std::is_sorted(drained.rbegin(), drained.rend()));
  std::multiset<std::uint64_t> got(drained.begin(), drained.end());
  EXPECT_EQ(got, reference);
}

TEST_P(ContainersAllConfigs, BitmapClaimSemantics) {
  TxBitmap bm(256);
  atomic([&](Tx& tx) {
    EXPECT_TRUE(bm.set(tx, 17));
    EXPECT_FALSE(bm.set(tx, 17));
    EXPECT_TRUE(bm.test(tx, 17));
    EXPECT_FALSE(bm.test(tx, 18));
    bm.clear(tx, 17);
    EXPECT_FALSE(bm.test(tx, 17));
    EXPECT_TRUE(bm.set(tx, 17));
  });
  EXPECT_EQ(bm.count_sequential(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ContainersAllConfigs,
                         ::testing::Range<std::size_t>(0, all_configs().size()),
                         [](const auto& info) { return config_name(info.param); });

// ---------------------------------------------------------------------------
// Sequential bulk builders (setup code) must build exactly what the per-
// element inserts build.
// ---------------------------------------------------------------------------

// Orders by the high bits only, so equivalent elements keep distinct low
// bits and the order among them is observable.
struct HighBitsLess {
  bool operator()(std::uint64_t a, std::uint64_t b) const {
    return (a >> 8) < (b >> 8);
  }
};

template <typename List>
std::vector<std::uint64_t> list_contents(List& list) {
  std::vector<std::uint64_t> out;
  atomic([&](Tx& tx) {
    out.clear();  // retry-safe
    typename List::Iterator it;
    list.iter_reset(tx, &it);
    while (list.iter_has_next(tx, &it)) out.push_back(list.iter_next(tx, &it));
  });
  return out;
}

TEST(ContainerBuilders, ListBulkInsertMatchesInserts) {
  set_global_config(TxConfig::baseline());
  Xoshiro256 rng(42);
  std::vector<std::uint64_t> values(500);
  for (auto& v : values) v = (rng.below(40) << 8) | rng.below(256);
  for (const bool dups : {true, false}) {
    TxList<std::uint64_t, HighBitsLess> inserted(dups);
    atomic([&](Tx& tx) {
      for (std::uint64_t v : values) inserted.insert(tx, v);
    });
    TxList<std::uint64_t, HighBitsLess> built(dups);
    const std::size_t n = built.bulk_insert_sequential(values);
    const auto want = list_contents(inserted);
    EXPECT_EQ(list_contents(built), want) << "duplicates " << dups;
    EXPECT_EQ(n, want.size());
    atomic([&](Tx& tx) { EXPECT_EQ(built.size(tx), want.size()); });
    EXPECT_EQ(want.size(), dups ? values.size() : 40u);
  }
}

TEST(ContainerBuilders, ListBulkInsertOfNothingLeavesEmptyList) {
  TxList<std::uint64_t> list;
  EXPECT_EQ(list.bulk_insert_sequential({}), 0u);
  EXPECT_TRUE(list_contents(list).empty());
  atomic([&](Tx& tx) {
    EXPECT_TRUE(list.empty(tx));
    EXPECT_TRUE(list.insert(tx, 3));  // still a working list
  });
  EXPECT_EQ(list_contents(list), (std::vector<std::uint64_t>{3}));
}

using BuiltMap = TxMap<std::uint64_t, std::uint64_t>;

std::vector<std::pair<std::uint64_t, std::uint64_t>> map_contents(
    const BuiltMap& map) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  map.for_each_sequential([&](std::uint64_t k, std::uint64_t v) {
    out.emplace_back(k, v);
  });
  return out;
}

// Transactional reads a find of @p k costs: one per node on its path, so
// equal counts for every key mean equal node depths, hence an equal shape.
std::uint64_t find_reads(BuiltMap& map, std::uint64_t k) {
  stats_reset();
  atomic([&](Tx& tx) { EXPECT_TRUE(map.find(tx, k)); });
  return stats_snapshot().reads;
}

void expect_same_treap(BuiltMap& built, BuiltMap& inserted,
                       const std::vector<std::uint64_t>& keys) {
  ASSERT_EQ(map_contents(built), map_contents(inserted));
  atomic([&](Tx& tx) { EXPECT_EQ(built.size(tx), inserted.size(tx)); });
  for (std::uint64_t k : keys) {
    EXPECT_EQ(find_reads(built, k), find_reads(inserted, k)) << "key " << k;
  }
}

TEST(ContainerBuilders, MapAscendingBuilderMatchesInserts) {
  set_global_config(TxConfig::baseline());
  Xoshiro256 rng(7);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; keys.size() < 2000;) {
    keys.push_back(k += 1 + rng.below(5));
  }
  BuiltMap inserted;
  atomic([&](Tx& tx) {
    for (std::uint64_t k : keys) inserted.insert(tx, k, k * 3);
  });
  BuiltMap built;
  BuiltMap::AscendingBuilder builder(built);
  for (std::uint64_t k : keys) builder.append(k, k * 3);
  expect_same_treap(built, inserted, keys);
}

TEST(ContainerBuilders, MapAscendingBuilderExtendsAMapOfSmallerKeys) {
  set_global_config(TxConfig::baseline());
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 1000; ++k) keys.push_back(k * 2);
  BuiltMap inserted;
  BuiltMap built;
  atomic([&](Tx& tx) {
    for (std::uint64_t k : keys) inserted.insert(tx, k, k);
    for (std::size_t i = 0; i < 300; ++i) built.insert(tx, keys[i], keys[i]);
  });
  BuiltMap::AscendingBuilder builder(built);
  for (std::size_t i = 300; i < keys.size(); ++i) {
    builder.append(keys[i], keys[i]);
  }
  expect_same_treap(built, inserted, keys);
}

// ---------------------------------------------------------------------------
// Elision profile checks: the containers must actually produce the captured
// accesses the paper measures (node init writes elided under runtime checks).
// ---------------------------------------------------------------------------

TEST(ContainerElision, ListInsertNodeInitIsElidedUnderRuntimeChecks) {
  set_global_config(TxConfig::runtime_w());
  stats_reset();
  TxList<std::uint64_t> list;
  atomic([&](Tx& tx) { list.insert(tx, 1); });
  const TxStats s = stats_snapshot();
  EXPECT_GE(s.write_elided_heap, 2u);  // node value + next
  set_global_config(TxConfig::baseline());
}

TEST(ContainerElision, ListInsertNodeInitIsElidedUnderCompiler) {
  set_global_config(TxConfig::compiler());
  stats_reset();
  TxList<std::uint64_t> list;
  atomic([&](Tx& tx) { list.insert(tx, 1); });
  const TxStats s = stats_snapshot();
  EXPECT_GE(s.write_elided_static, 2u);
  set_global_config(TxConfig::baseline());
}

TEST(ContainerElision, IteratorAccessesAreStackCaptured) {
  set_global_config(TxConfig::runtime_rw());
  stats_reset();
  TxList<std::uint64_t> list;
  atomic([&](Tx& tx) {
    for (std::uint64_t i = 0; i < 4; ++i) list.insert(tx, i);
  });
  stats_reset();
  atomic([&](Tx& tx) {
    typename TxList<std::uint64_t>::Iterator it;
    list.iter_reset(tx, &it);
    while (list.iter_has_next(tx, &it)) (void)list.iter_next(tx, &it);
  });
  const TxStats s = stats_snapshot();
  EXPECT_GT(s.read_elided_stack, 0u);
  EXPECT_GT(s.write_elided_stack, 0u);
  set_global_config(TxConfig::baseline());
}

TEST(ContainerElision, MapInsertUnderCountModeShowsCapturedWrites) {
  set_global_config(TxConfig::counting());
  stats_reset();
  TxMap<std::uint64_t, std::uint64_t> map;
  atomic([&](Tx& tx) { map.insert(tx, 5, 50); });
  const TxStats s = stats_snapshot();
  // 5 node-init writes classified as captured heap; root link is required.
  EXPECT_GE(s.write_cap_heap, 5u);
  EXPECT_GE(s.write_required, 1u);
  set_global_config(TxConfig::baseline());
}

}  // namespace
}  // namespace cstm
