// Durable transaction mode: plan compilation, the DurableHeap region
// (create/reopen persistence, transactional allocation, nested-abort
// unwinding), and — the contribution under test — flush elision: stores
// the capture machinery proves transaction-local never reach the redo log,
// so a fully-captured transaction flushes nothing and capture-enabled
// durable runs issue measurably fewer pwb()s than the flush-everything
// baseline on the same workload.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "durable/durable_heap.hpp"
#include "durable/pwb.hpp"
#include "stamp/app.hpp"
#include "stm/stm.hpp"

namespace cstm {
namespace {

// Durable presets keep the exact barrier paths of their non-durable
// namesakes — the mode adds a commit-time leg, never a per-access branch —
// and only the durable presets set the plan bit. Compile-time, like the
// plan checks in test_stm_basic.cpp.
namespace plan_checks {
constexpr BarrierPlan kDurableRw =
    BarrierPlan::compile(TxConfig::durable_rw(AllocLogKind::kFilter));
static_assert(kDurableRw.read == BarrierPath::kStackHeapPrivFilter &&
              kDurableRw.write == BarrierPath::kStackHeapPrivFilter &&
              kDurableRw.log == ActiveLog::kFilter && kDurableRw.durable);

constexpr BarrierPlan kDurableBaseline =
    BarrierPlan::compile(TxConfig::durable_baseline());
static_assert(kDurableBaseline.read == BarrierPath::kFull &&
              kDurableBaseline.write == BarrierPath::kFull &&
              kDurableBaseline.log == ActiveLog::kNone &&
              kDurableBaseline.durable);

static_assert(!BarrierPlan::compile(TxConfig::baseline()).durable);
static_assert(
    !BarrierPlan::compile(TxConfig::runtime_rw(AllocLogKind::kFilter)).durable);
static_assert(!BarrierPlan::compile(TxConfig::compiler()).durable);
}  // namespace plan_checks

std::string scratch_heap_path() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/cstm_" +
         info->name() + "_" + std::to_string(::getpid()) + ".heap";
}

class Durable : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = scratch_heap_path();
    std::remove(path_.c_str());
    set_global_config(TxConfig::baseline());
    stats_reset();
  }
  void TearDown() override {
    if (dur::DurableHeap::active() != nullptr) {
      dur::DurableHeap::active()->deactivate();
    }
    set_global_config(TxConfig::baseline());
    std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(Durable, CreateReopenPersistsTmWrites) {
  dur::OpenResult res;
  {
    dur::DurableHeap heap;
    ASSERT_TRUE(heap.open(path_, {}, &res));
    EXPECT_TRUE(res.created);
    heap.activate();
    set_global_config(TxConfig::durable_baseline());
    auto* cells = static_cast<std::uint64_t*>(heap.data());
    atomic([&](Tx& tx) {
      tm_write(tx, heap.root_slot(0), std::uint64_t{7});
      tm_write(tx, &cells[0], std::uint64_t{42});
      tm_write(tx, &cells[1], std::uint64_t{43});
    });
    const TxStats s = stats_snapshot();
    EXPECT_EQ(s.durable_commits, 1u);
    EXPECT_EQ(s.durable_stores_logged, 3u);
    EXPECT_GT(s.durable_pwbs, 0u);
    EXPECT_GT(s.durable_pfences, 0u);
    heap.deactivate();
    heap.close();
  }
  // A clean image: no commit record to replay, data already written back.
  dur::DurableHeap heap;
  ASSERT_TRUE(heap.open(path_, {}, &res));
  EXPECT_FALSE(res.created);
  EXPECT_FALSE(res.replayed_commit);
  EXPECT_EQ(*heap.root_slot(0), 7u);
  auto* cells = static_cast<std::uint64_t*>(heap.data());
  EXPECT_EQ(cells[0], 42u);
  EXPECT_EQ(cells[1], 43u);
  heap.close();
}

TEST_F(Durable, VolatileFallbackLogWithoutActiveHeap) {
  // Durable mode without a region: commits pay the full serialization and
  // flush accounting against a process-local log. Same code path as the
  // region case, which is what the differential presets rely on.
  set_global_config(TxConfig::durable_baseline());
  std::uint64_t x = 0;
  atomic([&](Tx& tx) { tm_write(tx, &x, std::uint64_t{5}); });
  EXPECT_EQ(x, 5u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.durable_commits, 1u);
  EXPECT_EQ(s.durable_stores_logged, 1u);
  EXPECT_GT(s.durable_pwbs, 0u);
  EXPECT_EQ(s.flushes_elided_percent(), 0.0);
}

TEST_F(Durable, OpenRejectsForeignFile) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::vector<unsigned char> junk(8192, 0xFF);
  std::fwrite(junk.data(), 1, junk.size(), f);
  std::fclose(f);
  dur::DurableHeap heap;
  EXPECT_FALSE(heap.open(path_));
  EXPECT_FALSE(heap.is_open());
}

// Heap-file layout (durable_heap.hpp / durable_heap.cpp): a 4096-byte
// header (u32 version at byte 8, u64 applied_seq watermark at byte 32),
// then the log area, then the data area. The single redo record sits at
// log offset 0: [u64 seq][u32 count][u32 0][count x 24-byte entries]
// [u64 checksum].
constexpr off_t kFileHeaderBytes = 4096;
constexpr off_t kVersionAt = 8;
constexpr off_t kAppliedSeqAt = 32;

template <typename T>
T pread_at(int fd, off_t at) {
  T v{};
  EXPECT_EQ(::pread(fd, &v, sizeof(v), at), static_cast<ssize_t>(sizeof(v)));
  return v;
}

template <typename T>
void pwrite_at(int fd, off_t at, T v) {
  EXPECT_EQ(::pwrite(fd, &v, sizeof(v), at), static_cast<ssize_t>(sizeof(v)));
}

TEST_F(Durable, OpenRejectsVersion1File) {
  {
    dur::DurableHeap heap;
    ASSERT_TRUE(heap.open(path_));
    heap.close();
  }
  const int fd = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(pread_at<std::uint32_t>(fd, kVersionAt), 2u);
  pwrite_at<std::uint32_t>(fd, kVersionAt, 1);
  ::close(fd);
  dur::DurableHeap heap;
  EXPECT_FALSE(heap.open(path_));
  EXPECT_FALSE(heap.is_open());
}

TEST_F(Durable, CorruptedCommitRecordIsDiscarded) {
  dur::HeapOptions opt;
  opt.data_bytes = 4096;
  opt.log_bytes = 4096;
  std::uint64_t slot_off = 0, cell_off = 0;
  {
    dur::DurableHeap heap;
    ASSERT_TRUE(heap.open(path_, opt));
    heap.activate();
    set_global_config(TxConfig::durable_baseline());
    auto* cells = static_cast<std::uint64_t*>(heap.data());
    atomic([&](Tx& tx) {
      tm_write(tx, heap.root_slot(2), std::uint64_t{2000});
      tm_write(tx, &cells[0], std::uint64_t{42});
    });
    slot_off = heap.offset_of(heap.root_slot(2));
    cell_off = heap.offset_of(&cells[0]);
    heap.deactivate();
    heap.close();
  }
  // Turn the clean image into one that lost power after the commit point
  // but before the data write-back: the watermark below the record's seq
  // and the written bytes at their pre-transaction value (0, a fresh file).
  const int fd = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  const off_t log_at = kFileHeaderBytes;
  const off_t data_at = kFileHeaderBytes + static_cast<off_t>(opt.log_bytes);
  const auto seq = pread_at<std::uint64_t>(fd, log_at);
  const auto count = pread_at<std::uint32_t>(fd, log_at + 8);
  ASSERT_GE(count, 2u);
  const off_t record_bytes = 16 + 24 * static_cast<off_t>(count) + 8;
  pwrite_at<std::uint64_t>(fd, kAppliedSeqAt, seq - 1);
  pwrite_at<std::uint64_t>(fd, data_at + static_cast<off_t>(slot_off), 0);
  pwrite_at<std::uint64_t>(fd, data_at + static_cast<off_t>(cell_off), 0);

  struct Reopened {
    dur::OpenResult res;
    std::uint64_t slot = 0, cell = 0;
  };
  const auto reopen = [&] {
    Reopened r;
    dur::DurableHeap heap;
    EXPECT_TRUE(heap.open(path_, opt, &r.res));
    r.slot = *heap.root_slot(2);
    r.cell = *static_cast<std::uint64_t*>(heap.at(cell_off));
    heap.close();
    return r;
  };
  // Discarding writes nothing to the file, so each flip is undone by
  // restoring the one byte.
  for (off_t i = 0; i < record_bytes; ++i) {
    const auto byte = pread_at<unsigned char>(fd, log_at + i);
    pwrite_at<unsigned char>(fd, log_at + i,
                             static_cast<unsigned char>(byte ^ 0xFF));
    const Reopened r = reopen();
    EXPECT_FALSE(r.res.replayed_commit) << "record byte " << i;
    EXPECT_EQ(r.res.replayed_entries, 0u) << "record byte " << i;
    EXPECT_EQ(r.slot, 0u) << "record byte " << i;
    EXPECT_EQ(r.cell, 0u) << "record byte " << i;
    pwrite_at<unsigned char>(fd, log_at + i, byte);
  }
  // The intact record replays, so the discards above were the checksum's
  // doing, not a record recovery would have skipped anyway.
  const Reopened r = reopen();
  EXPECT_TRUE(r.res.replayed_commit);
  EXPECT_EQ(r.slot, 2000u);
  EXPECT_EQ(r.cell, 42u);
  ::close(fd);
}

TEST_F(Durable, AllocExhaustionThrowsBadAlloc) {
  dur::DurableHeap heap;
  ASSERT_TRUE(heap.open(path_));
  heap.activate();
  set_global_config(TxConfig::durable_rw(AllocLogKind::kTree));
  EXPECT_THROW(atomic([&](Tx& tx) {
                 (void)heap.alloc(tx, heap.user_bytes() + 1);
               }),
               std::bad_alloc);
  heap.deactivate();
  heap.close();
}

TEST_F(Durable, RegionAllocIsCapturedAndPersists) {
  dur::DurableHeap heap;
  ASSERT_TRUE(heap.open(path_));
  heap.activate();
  set_global_config(TxConfig::durable_rw(AllocLogKind::kTree));
  std::uint64_t off = 0;
  atomic([&](Tx& tx) {
    auto* p = static_cast<std::uint64_t*>(heap.alloc(tx, 64));
    for (int i = 0; i < 8; ++i) {
      tm_write(tx, &p[i], std::uint64_t(i + 1), kAutoSite);  // captured
    }
    off = heap.offset_of(p);
    tm_write(tx, heap.root_slot(0), off);  // shared: redo-logged
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.durable_allocs, 1u);
  EXPECT_EQ(s.durable_captured_writebacks, 1u);
  EXPECT_GE(s.write_elided_heap, 8u);
  // Only the bump cursor and the root slot reached the redo log; the eight
  // block stores rode the wholesale captured write-back.
  EXPECT_EQ(s.durable_stores_logged, 2u);
  EXPECT_GT(s.flushes_elided_percent(), 50.0);
  heap.deactivate();
  heap.close();

  dur::DurableHeap re;
  ASSERT_TRUE(re.open(path_));
  EXPECT_EQ(*re.root_slot(0), off);
  auto* p = static_cast<std::uint64_t*>(re.at(off));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(p[i], std::uint64_t(i + 1));
  re.close();
}

TEST_F(Durable, NestedAbortUnwindsAllocCursorAndRedoEntries) {
  dur::DurableHeap heap;
  ASSERT_TRUE(heap.open(path_));
  heap.activate();
  set_global_config(TxConfig::durable_rw(AllocLogKind::kTree));
  void* aborted_block = nullptr;
  void* reused_block = nullptr;
  atomic([&](Tx& tx) {
    tm_write(tx, heap.root_slot(0), std::uint64_t{1});
    atomic([&](Tx& inner) {
      tm_write(inner, heap.root_slot(1), std::uint64_t{99});
      aborted_block = heap.alloc(inner, 64);
      abort_tx();  // partial abort: cursor, capture entry, redo entry unwind
    });
    reused_block = heap.alloc(tx, 64);
    tm_write(tx, heap.root_slot(2), std::uint64_t{3});
  });
  // The cursor rolled back with the nested level: the retry allocation
  // lands on the same bytes.
  EXPECT_EQ(reused_block, aborted_block);
  // Only the surviving level's blocks are written back at commit.
  EXPECT_EQ(stats_snapshot().durable_captured_writebacks, 1u);
  heap.deactivate();
  heap.close();

  dur::DurableHeap re;
  ASSERT_TRUE(re.open(path_));
  EXPECT_EQ(*re.root_slot(0), 1u);
  EXPECT_EQ(*re.root_slot(1), 0u);  // the aborted inner write never persisted
  EXPECT_EQ(*re.root_slot(2), 3u);
  re.close();
}

// -- Flush-elision accounting -------------------------------------------------

TEST_F(Durable, FullyCapturedTransactionElidesEveryFlush) {
  // Scratch-only transaction: every store is captured, the redo log stays
  // empty, and the durable leg never even runs — 100% of flushes elided.
  set_global_config(TxConfig::durable_rw(AllocLogKind::kTree));
  atomic([&](Tx& tx) {
    auto* scratch = static_cast<std::uint64_t*>(tx_malloc(tx, 64));
    for (int i = 0; i < 8; ++i) {
      tm_write(tx, &scratch[i], std::uint64_t(i), kAutoSite);
    }
    tx_free(tx, scratch);
  });
  const TxStats s = stats_snapshot();
  EXPECT_GE(s.write_elided_heap, 8u);
  EXPECT_EQ(s.durable_stores_logged, 0u);
  EXPECT_EQ(s.durable_commits, 0u);
  EXPECT_EQ(s.durable_pwbs, 0u);
  EXPECT_EQ(s.flushes_elided_percent(), 100.0);
}

TEST_F(Durable, CaptureDisabledElidesNoFlushes) {
  set_global_config(TxConfig::durable_baseline());
  atomic([&](Tx& tx) {
    auto* scratch = static_cast<std::uint64_t*>(tx_malloc(tx, 64));
    for (int i = 0; i < 8; ++i) {
      tm_write(tx, &scratch[i], std::uint64_t(i), kAutoSite);
    }
    tx_free(tx, scratch);
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_elided(), 0u);
  EXPECT_GE(s.durable_stores_logged, 8u);
  EXPECT_EQ(s.durable_commits, 1u);
  EXPECT_EQ(s.flushes_elided_percent(), 0.0);
}

TEST_F(Durable, CaptureCutsPwbTrafficVsDisabledOnSameWorkload) {
  // The acceptance criterion: identical capture-heavy workload, durable
  // mode with capture vs without — capture must issue measurably fewer
  // pwb()s, because captured stores produce no redo entries to flush.
  auto run = [&](const TxConfig& cfg) {
    std::remove(path_.c_str());
    dur::DurableHeap heap;
    EXPECT_TRUE(heap.open(path_));
    heap.activate();
    set_global_config(cfg);
    stats_reset();
    for (int t = 0; t < 16; ++t) {
      atomic([&](Tx& tx) {
        auto* p = static_cast<std::uint64_t*>(heap.alloc(tx, 128));
        for (int i = 0; i < 16; ++i) {
          tm_write(tx, &p[i], std::uint64_t(t * 100 + i), kAutoSite);
        }
        tm_write(tx, heap.root_slot(0), heap.offset_of(p));
      });
    }
    const TxStats s = stats_snapshot();
    heap.deactivate();
    heap.close();
    return s;
  };
  const TxStats with_capture = run(TxConfig::durable_rw(AllocLogKind::kTree));
  const TxStats no_capture = run(TxConfig::durable_baseline());
  EXPECT_EQ(with_capture.durable_commits, no_capture.durable_commits);
  EXPECT_LT(with_capture.durable_stores_logged, no_capture.durable_stores_logged);
  EXPECT_LT(with_capture.durable_pwbs, no_capture.durable_pwbs);
  EXPECT_GT(with_capture.flushes_elided_percent(), 50.0);
  EXPECT_EQ(no_capture.flushes_elided_percent(), 0.0);
}

}  // namespace
}  // namespace cstm

// Elision on a real workload: replaying the vacation-low request stream at
// growing merge factors raises the capture-hit rate (txbatch's whole
// point), and the flushes-elided share must ride along monotonically.
namespace cstm::stamp {
namespace {

TEST(DurableStream, FlushElisionTracksCaptureHitRateOnVacation) {
  set_global_config(TxConfig::durable_rw(AllocLogKind::kTree));
  double prev_elided = -1.0;
  double prev_hit = -1.0;
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{16}, std::size_t{64}}) {
    stats_reset();
    auto app = make_app("vacation-low");
    AppParams params;
    params.threads = 1;
    params.scale = 0.05;
    std::uint64_t requests = 0;
    run_app_stream(*app, params, batch, &requests);
    EXPECT_GT(requests, 0u);
    const TxStats s = stats_snapshot();
    EXPECT_GT(s.durable_commits, 0u);
    EXPECT_GE(s.capture_hit_percent(), prev_hit);
    EXPECT_GE(s.flushes_elided_percent(), prev_elided);
    prev_hit = s.capture_hit_percent();
    prev_elided = s.flushes_elided_percent();
  }
  // The sweep moved: merging must have bought real elision, not a flat 0.
  EXPECT_GT(prev_elided, 0.0);
  set_global_config(TxConfig::baseline());
}

}  // namespace
}  // namespace cstm::stamp
