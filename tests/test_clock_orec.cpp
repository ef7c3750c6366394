// Property tests for the commit-time hot spots:
//
//  * the global version clock (stm/gclock.hpp) — consecutive stamps, the
//    previous value each stamp replaced, visibility on return, global
//    uniqueness of stamps and a monotonic clock under concurrency;
//  * the ownership-record table (stm/orec.hpp) — same-line/adjacent-line
//    mapping guarantees, and the locality of records kept in address
//    order: 8 neighbouring lines per table line, few table pages per data
//    region, aliasing only at exactly kSize lines.
//
// The clock tests run against LOCAL GlobalClock instances, so the counts
// start at 0 whatever the production clock has seen.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "stm/gclock.hpp"
#include "stm/orec.hpp"
#include "stm/stm.hpp"

namespace cstm {
namespace {

// ---------------------------------------------------------------------------
// Global clock
// ---------------------------------------------------------------------------

TEST(GlobalClock, SingleThreadStampsAreConsecutive) {
  GlobalClock clock;
  for (std::uint64_t i = 0; i < 100; ++i) {
    // advance() returns the value it replaced; the stamp is that + 1.
    EXPECT_EQ(clock.advance(), i);
    EXPECT_EQ(clock.load(), i + 1);  // visible before return
  }
}

TEST(GlobalClock, ConcurrentStampsAreUniqueAndTheClockIsMonotonic) {
  GlobalClock clock;
  constexpr int kThreads = 8;
  constexpr int kStampsPerThread = 2000;
  std::vector<std::vector<std::uint64_t>> stamps(kThreads);
  std::atomic<bool> monotonic{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t last_seen = 0;
      for (int i = 0; i < kStampsPerThread; ++i) {
        const std::uint64_t ts = clock.advance() + 1;
        stamps[t].push_back(ts);
        // Visible on return, observed concurrently.
        if (clock.load() < ts) monotonic.store(false);
        // The clock a single observer reads never goes backwards.
        const std::uint64_t now = clock.load();
        if (now < last_seen) monotonic.store(false);
        last_seen = now;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(monotonic.load());

  std::vector<std::uint64_t> all;
  for (auto& v : stamps) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end())
      << "duplicate commit timestamp: the anti-ABA uniqueness invariant";
  // Per-thread stamps strictly increase (each thread's commits serialize
  // in stamp order).
  for (const auto& v : stamps) {
    for (std::size_t i = 1; i < v.size(); ++i) EXPECT_LT(v[i - 1], v[i]);
  }
  // No stamp is skipped: the stamps are exactly 1..N, and the clock reads N.
  constexpr std::uint64_t kTotal =
      std::uint64_t{kThreads} * std::uint64_t{kStampsPerThread};
  EXPECT_EQ(all.front(), 1u);
  EXPECT_EQ(all.back(), kTotal);
  EXPECT_EQ(clock.load(), kTotal);
}

// ---------------------------------------------------------------------------
// Orec table layout: records in address order
// ---------------------------------------------------------------------------

constexpr std::uintptr_t kTablePage = 4096;

std::uintptr_t rec_addr(const void* p) {
  return reinterpret_cast<std::uintptr_t>(&orec_table().slot(p));
}

const void* line_addr(std::uintptr_t line) {
  return reinterpret_cast<const void*>(line << OrecTable::kGranularityLog2);
}

TEST(OrecLayout, SameCacheLineMapsToSameRecord) {
  alignas(64) std::uint64_t line[8];
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(OrecTable::index_of(&line[0]), OrecTable::index_of(&line[i]));
  }
}

TEST(OrecLayout, AdjacentCacheLinesNeverCollide) {
  static std::uint64_t region[1 << 15];
  const char* base = reinterpret_cast<const char*>(&region[0]);
  for (std::size_t off = 0; off + 64 < sizeof(region); off += 64) {
    ASSERT_NE(OrecTable::index_of(base + off), OrecTable::index_of(base + off + 64));
  }
}

TEST(OrecLayout, AlignedWindowOfEightLinesSharesOneOrecLine) {
  // The 8 lines of an aligned 512-byte window have consecutive records
  // starting at a multiple of 8, i.e. one cache line of the table; the next
  // window starts the next table line.
  alignas(512) static unsigned char region[512 * 64];
  const std::uintptr_t windows[] = {
      reinterpret_cast<std::uintptr_t>(&region[0]),
      reinterpret_cast<std::uintptr_t>(&region[512 * 37]),
      0x7f0000000000ull,
      0x7f0000001200ull,
      (OrecTable::kSize - 8) << OrecTable::kGranularityLog2,  // table end
  };
  for (const std::uintptr_t w : windows) {
    ASSERT_EQ(w % 512, 0u);
    const std::uintptr_t first = rec_addr(reinterpret_cast<const void*>(w));
    EXPECT_EQ(first % kCacheLineSize, 0u) << std::hex << w;
    for (std::uintptr_t off = 0; off < 512; off += 8) {
      EXPECT_EQ(rec_addr(reinterpret_cast<const void*>(w + off)) / kCacheLineSize,
                first / kCacheLineSize)
          << std::hex << w << " + " << off;
    }
    EXPECT_NE(rec_addr(reinterpret_cast<const void*>(w + 512)) / kCacheLineSize,
              first / kCacheLineSize);
  }
}

TEST(OrecLayout, ContiguousRegionTouchesFewTablePages) {
  // 4 MB of data is 65,536 lines, whose records fill 512 KB of the table:
  // 128 pages, 129 when the run starts mid-page. (A hash that scatters
  // lines over the table touches nearly all of its 2,048 pages.)
  constexpr std::uintptr_t kRegion = std::uintptr_t{4} << 20;
  const std::uintptr_t bases[] = {
      0x7f0000000000ull,                      // page- and window-aligned
      0x7f0000000000ull + 64 * 3,             // starts mid table line
      0x7f0000000000ull + 4096 * 7 + 64 * 5,  // starts mid table page
      0x55550000c040ull,
  };
  for (const std::uintptr_t base : bases) {
    std::vector<std::uintptr_t> pages;
    for (std::uintptr_t a = base; a < base + kRegion; a += 64) {
      const std::uintptr_t page =
          rec_addr(reinterpret_cast<const void*>(a)) / kTablePage;
      if (pages.empty() || pages.back() != page) pages.push_back(page);
    }
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    EXPECT_LE(pages.size(), 129u) << std::hex << base;
  }
}

TEST(OrecLayout, LinesCollideExactlyWhenKSizeLinesApart) {
  const std::uintptr_t lines[] = {0, 1, 12345, OrecTable::kSize - 1,
                                  0x7f0000000000ull >> 6};
  const std::uintptr_t k = OrecTable::kSize;
  const std::uintptr_t deltas[] = {1,     2,         7,         8,     9,
                                   4096,  k / 2,     k - 8,     k - 1, k,
                                   k + 1, 2 * k - 1, 2 * k,     3 * k, 5 * k + 64};
  for (const std::uintptr_t l : lines) {
    for (const std::uintptr_t d : deltas) {
      const bool collide = OrecTable::index_of(line_addr(l)) ==
                           OrecTable::index_of(line_addr(l + d));
      EXPECT_EQ(collide, d % k == 0) << "line " << l << " delta " << d;
      EXPECT_EQ(collide, rec_addr(line_addr(l)) == rec_addr(line_addr(l + d)));
    }
  }
}

// ---------------------------------------------------------------------------
// Merged batches against the production clock
// ---------------------------------------------------------------------------

TEST(ClockTx, MergedBatchPublishesOnce) {
  // The txbatch form of WritingTransactionsAdvanceClockOnce
  // (tests/test_stm_advanced.cpp): N writing sub-ops merged into one outer
  // transaction are ONE writing commit, so the clock advances by exactly 1
  // per drained batch — never once per sub-op. Nested commits don't touch
  // the clock; only commit_top stamps.
  set_global_config(TxConfig::baseline());
  std::uint64_t x = 0;
  constexpr int kRounds = 10;
  constexpr int kOpsPerBatch = 16;
  std::uint64_t prev = global_clock().load();
  for (int round = 0; round < kRounds; ++round) {
    txbatch::BatcherOptions opts;
    opts.max_batch = kOpsPerBatch;
    txbatch::Batcher batcher(opts);
    for (int i = 0; i < kOpsPerBatch; ++i) {
      batcher.enqueue([&x, i](Tx& tx) {
        tm_write(tx, &x, static_cast<std::uint64_t>(i));
      });
    }
    batcher.drain();
    const std::uint64_t now = global_clock().load();
    EXPECT_EQ(now, prev + 1) << "batch " << round;
    prev = now;
  }
  set_global_config(TxConfig::baseline());
}

}  // namespace
}  // namespace cstm
