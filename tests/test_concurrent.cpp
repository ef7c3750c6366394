// Concurrency stress tests: atomicity, isolation and rollback under real
// contention, for every optimization configuration. These are the paper's
// safety requirement in executable form — capture-based elision must never
// change program outcomes, only speed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "containers/containers.hpp"
#include "stm/stm.hpp"
#include "support/random.hpp"

namespace cstm {
namespace {

constexpr int kThreads = 8;

std::vector<TxConfig> stress_configs() {
  return {
      TxConfig::baseline(),
      TxConfig::runtime_rw(AllocLogKind::kTree),
      TxConfig::runtime_rw(AllocLogKind::kArray),
      TxConfig::runtime_rw(AllocLogKind::kFilter),
      TxConfig::runtime_w(AllocLogKind::kTree),
      TxConfig::compiler(),
  };
}

std::string stress_name(std::size_t i) {
  static const char* names[] = {"baseline", "rw_tree",  "rw_array",
                                "rw_filter", "w_tree",  "compiler"};
  return names[i];
}

void run_threads(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) threads.emplace_back(fn, t);
  for (auto& th : threads) th.join();
}

class StressAllConfigs : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    set_global_config(stress_configs()[GetParam()]);
    stats_reset();
  }
  void TearDown() override { set_global_config(TxConfig::baseline()); }
};

TEST_P(StressAllConfigs, CounterIncrementsAreAtomic) {
  alignas(64) std::uint64_t counter = 0;
  constexpr std::uint64_t kPerThread = 20000;
  run_threads(kThreads, [&](int) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      atomic([&](Tx& tx) { tm_add(tx, &counter, std::uint64_t{1}); });
    }
  });
  EXPECT_EQ(counter, kPerThread * kThreads);
}

TEST_P(StressAllConfigs, BankTransfersConserveMoney) {
  constexpr std::size_t kAccounts = 64;
  constexpr std::uint64_t kInitial = 1000;
  std::vector<std::uint64_t> balance(kAccounts, kInitial);
  run_threads(kThreads, [&](int tid) {
    Xoshiro256 rng(1000 + static_cast<std::uint64_t>(tid));
    for (int i = 0; i < 20000; ++i) {
      const std::size_t from = rng.below(kAccounts);
      const std::size_t to = rng.below(kAccounts);
      const std::uint64_t amount = rng.below(10);
      atomic([&](Tx& tx) {
        const std::uint64_t b = tm_read(tx, &balance[from]);
        if (b >= amount) {
          tm_write(tx, &balance[from], b - amount);
          tm_add(tx, &balance[to], amount);
        }
      });
    }
  });
  const std::uint64_t total =
      std::accumulate(balance.begin(), balance.end(), std::uint64_t{0});
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST_P(StressAllConfigs, ListLinearizableSetSemantics) {
  TxList<std::uint64_t> list;
  std::atomic<std::uint64_t> net_inserted{0};
  run_threads(kThreads, [&](int tid) {
    Xoshiro256 rng(7 + static_cast<std::uint64_t>(tid));
    std::uint64_t local_net = 0;
    for (int i = 0; i < 4000; ++i) {
      const std::uint64_t key = rng.below(128);
      bool did = false;
      if (rng.below(2) == 0) {
        atomic([&](Tx& tx) { did = list.insert(tx, key); });
        if (did) ++local_net;
      } else {
        atomic([&](Tx& tx) { did = list.remove(tx, key); });
        if (did) --local_net;
      }
    }
    net_inserted.fetch_add(local_net);
  });
  Tx& tx0 = current_tx();
  std::size_t final_size = 0;
  atomic([&](Tx& tx) { final_size = list.size(tx); });
  (void)tx0;
  EXPECT_EQ(final_size, net_inserted.load());
  // Sortedness survives.
  std::vector<std::uint64_t> seen;
  atomic([&](Tx& tx) {
    seen.clear();
    typename TxList<std::uint64_t>::Iterator it;
    list.iter_reset(tx, &it);
    while (list.iter_has_next(tx, &it)) seen.push_back(list.iter_next(tx, &it));
  });
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.size(), final_size);
}

TEST_P(StressAllConfigs, MapConcurrentInsertEraseFind) {
  TxMap<std::uint64_t, std::uint64_t> map;
  std::atomic<std::int64_t> net{0};
  run_threads(kThreads, [&](int tid) {
    Xoshiro256 rng(31 + static_cast<std::uint64_t>(tid));
    std::int64_t local = 0;
    for (int i = 0; i < 3000; ++i) {
      const std::uint64_t key = rng.below(512);
      const int op = static_cast<int>(rng.below(3));
      if (op == 0) {
        bool did = false;
        atomic([&](Tx& tx) { did = map.insert(tx, key, key * 2); });
        if (did) ++local;
      } else if (op == 1) {
        bool did = false;
        atomic([&](Tx& tx) { did = map.erase(tx, key); });
        if (did) --local;
      } else {
        std::uint64_t v = 0;
        bool found = false;
        atomic([&](Tx& tx) { found = map.find(tx, key, &v); });
        if (found) {
          EXPECT_EQ(v, key * 2);
        }
      }
    }
    net.fetch_add(local);
  });
  std::size_t size = 0;
  atomic([&](Tx& tx) { size = map.size(tx); });
  EXPECT_EQ(static_cast<std::int64_t>(size), net.load());
  std::vector<std::uint64_t> keys;
  map.for_each_sequential([&](std::uint64_t k, std::uint64_t) { keys.push_back(k); });
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), size);
}

TEST_P(StressAllConfigs, QueueNoLostOrDuplicatedItems) {
  TxQueue<std::uint64_t> queue;
  constexpr std::uint64_t kItems = 8000;
  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> consumed_sum{0};
  std::atomic<std::uint64_t> consumed_count{0};
  run_threads(kThreads, [&](int tid) {
    if (tid % 2 == 0) {  // producer
      for (;;) {
        const std::uint64_t v = produced.fetch_add(1);
        if (v >= kItems) break;
        atomic([&](Tx& tx) { queue.push(tx, v + 1); });
      }
    } else {  // consumer
      std::uint64_t local_sum = 0, local_count = 0;
      while (consumed_count.load() + local_count < kItems) {
        std::uint64_t v = 0;
        bool got = false;
        atomic([&](Tx& tx) { got = queue.pop(tx, &v); });
        if (got) {
          local_sum += v;
          ++local_count;
        } else if (produced.load() >= kItems) {
          // Producers done; drain once more then stop.
          atomic([&](Tx& tx) { got = queue.pop(tx, &v); });
          if (!got) break;
          local_sum += v;
          ++local_count;
        }
      }
      consumed_sum.fetch_add(local_sum);
      consumed_count.fetch_add(local_count);
    }
  });
  // Drain anything left.
  std::uint64_t v = 0;
  bool got = true;
  while (got) {
    atomic([&](Tx& tx) { got = queue.pop(tx, &v); });
    if (got) {
      consumed_sum.fetch_add(v);
      consumed_count.fetch_add(1);
    }
  }
  EXPECT_EQ(consumed_count.load(), kItems);
  EXPECT_EQ(consumed_sum.load(), kItems * (kItems + 1) / 2);
}

TEST_P(StressAllConfigs, BitmapEachBitClaimedOnce) {
  constexpr std::size_t kBits = 4096;
  TxBitmap bm(kBits);
  std::atomic<std::size_t> claims{0};
  run_threads(kThreads, [&](int tid) {
    Xoshiro256 rng(500 + static_cast<std::uint64_t>(tid));
    std::size_t local = 0;
    for (int i = 0; i < 20000; ++i) {
      const std::size_t bit = rng.below(kBits);
      bool won = false;
      atomic([&](Tx& tx) { won = bm.set(tx, bit); });
      if (won) ++local;
    }
    claims.fetch_add(local);
  });
  EXPECT_EQ(claims.load(), bm.count_sequential());
}

TEST_P(StressAllConfigs, AllocationHeavyTransactionsLeakNothingAcrossAborts) {
  // Transactions allocate scratch buffers, fill them (captured writes), then
  // publish a digest to a contended counter, forcing frequent aborts.
  alignas(64) std::uint64_t digest = 0;
  run_threads(kThreads, [&](int) {
    for (int i = 0; i < 3000; ++i) {
      atomic([&](Tx& tx) {
        auto* scratch = static_cast<std::uint64_t*>(tx_malloc(tx, 256));
        for (int j = 0; j < 32; ++j) {
          tm_write(tx, &scratch[j], std::uint64_t(j) * 3, kAutoSite);
        }
        std::uint64_t sum = 0;
        for (int j = 0; j < 32; ++j) sum += tm_read(tx, &scratch[j], kAutoSite);
        tx_free(tx, scratch);
        tm_add(tx, &digest, sum);
      });
    }
  });
  // 32 * (0+..+31*3) = 1488 per transaction.
  EXPECT_EQ(digest, std::uint64_t{1488} * 3000 * kThreads);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, StressAllConfigs,
                         ::testing::Range<std::size_t>(0,
                                                       stress_configs().size()),
                         [](const auto& info) { return stress_name(info.param); });

// ---------------------------------------------------------------------------
// Isolation-specific scenarios.
// ---------------------------------------------------------------------------

// Opacity smoke for elided writers: writers allocate a two-field node
// inside the transaction, initialize both fields with ELIDED stores (the
// captured fast path: plain stores, no orec acquisition, no undo log),
// then publish it with one full-barrier store. Concurrent read-only
// observers traverse to the node and must never see the two fields
// disagree — i.e. never observe a torn/partial initialization. This is
// the executable form of the analysis soundness argument: elision is only
// legal while the memory is unreachable from shared state, and the
// publishing store is what carries the isolation.
namespace {

/// Body of the torn-observer opacity check: an elided writer publishes
/// two-field nodes, read-only observers must never see the fields
/// disagree. Readers snapshot the global clock while the writer stamps it,
/// so the publish-before-release argument (gclock.hpp) is exercised here
/// too.
void expect_no_torn_observations(const TxConfig& cfg) {
  struct Node {
    std::uint64_t a;
    std::uint64_t b;
  };
  set_global_config(cfg);
  stats_reset();
  alignas(64) Node* slot = nullptr;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> observed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        std::uint64_t ra = 0, rb = 0;
        bool got = false;
        atomic([&](Tx& tx) {
          Node* n = tm_read(tx, &slot);
          if (n != nullptr) {
            ra = tm_read(tx, &n->a);
            rb = tm_read(tx, &n->b);
            got = true;
          }
        });
        if (got) {
          observed.fetch_add(1);
          if (ra != rb) torn.fetch_add(1);
        }
      }
    });
  }
  // Publish at least 20000 nodes, then keep going until the observers
  // have demonstrably raced with us (on a machine with fewer cores than
  // threads the readers may only get scheduled once the writer yields).
  for (std::uint64_t i = 1; i <= 2000000; ++i) {
    atomic([&](Tx& tx) {
      Node* fresh = static_cast<Node*>(tx_malloc(tx, sizeof(Node)));
      // Elided initializing stores (captured memory, zero log probes
      // under the compiler config).
      tm_write(tx, &fresh->a, i, kAutoCapturedSite);
      tm_write(tx, &fresh->b, i, kAutoCapturedSite);
      Node* old = tm_read(tx, &slot);
      tm_write(tx, &slot, fresh);  // publication: full barrier
      if (old != nullptr) tx_free(tx, old);
    });
    if (i % 4096 == 0) {
      if (i >= 20000 && observed.load() >= 1000) break;
      std::this_thread::yield();
    }
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(observed.load(), 0u);
  set_global_config(TxConfig::baseline());
}

}  // namespace

TEST(Isolation, ObserversNeverSeeTornStateFromElidedWriters) {
  const std::vector<TxConfig> writer_configs = {
      TxConfig::compiler(),                       // static elision
      TxConfig::runtime_w(AllocLogKind::kTree),   // runtime heap/stack elision
      TxConfig::runtime_rw(AllocLogKind::kFilter),
  };
  for (const TxConfig& cfg : writer_configs) expect_no_torn_observations(cfg);
}

TEST(Isolation, NoDirtyReadsOfUncommittedState) {
  set_global_config(TxConfig::baseline());
  stats_reset();
  // Writer repeatedly sets (a, b) to equal values inside one transaction;
  // readers must never observe a != b.
  alignas(64) std::uint64_t a = 0;
  alignas(128) std::uint64_t b = 0;  // separate cache line => separate orec
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::thread writer([&] {
    for (std::uint64_t i = 1; i < 30000; ++i) {
      atomic([&](Tx& tx) {
        tm_write(tx, &a, i);
        tm_write(tx, &b, i);
      });
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        std::uint64_t ra = 0, rb = 0;
        atomic([&](Tx& tx) {
          ra = tm_read(tx, &a);
          rb = tm_read(tx, &b);
        });
        if (ra != rb) violations.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0u);
}

TEST(Isolation, AbortedAllocationsNeverVisible) {
  set_global_config(TxConfig::runtime_w());
  stats_reset();
  // A pointer published only on commit: when the publishing write aborts,
  // the allocation must be rolled back and never observed.
  struct Box {
    std::uint64_t magic;
  };
  std::atomic<Box*> published{nullptr};
  alignas(64) std::uint64_t contended = 0;
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load()) {
      atomic([&](Tx& tx) { tm_add(tx, &contended, std::uint64_t{1}); });
    }
  });
  for (int i = 0; i < 20000; ++i) {
    atomic([&](Tx& tx) {
      auto* box = static_cast<Box*>(tx_malloc(tx, sizeof(Box)));
      tm_write(tx, &box->magic, std::uint64_t{0xfeedface}, kAutoSite);
      tm_add(tx, &contended, std::uint64_t{1});  // contention source
      Box* expected = nullptr;
      // Publish transactionally via a plain slot.
      Box* cur = tm_read(tx, reinterpret_cast<Box**>(&published));
      if (cur == expected) {
        tm_write(tx, reinterpret_cast<Box**>(&published), box);
      } else {
        tx_free(tx, box);
      }
    });
    Box* seen = published.load();
    if (seen != nullptr) {
      EXPECT_EQ(seen->magic, 0xfeedfaceu);
      atomic([&](Tx& tx) {
        Box* cur = tm_read(tx, reinterpret_cast<Box**>(&published));
        tm_write(tx, reinterpret_cast<Box**>(&published),
                 static_cast<Box*>(nullptr));
        tx_free(tx, cur);
      });
    }
  }
  stop.store(true);
  churn.join();
  set_global_config(TxConfig::baseline());
}

}  // namespace
}  // namespace cstm
