// Basic single-thread STM semantics: commit, abort/rollback, read-own,
// write-after-write, allocator integration, capture elision fast paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "stm/stm.hpp"

namespace cstm {
namespace {

class StmBasic : public ::testing::Test {
 protected:
  void SetUp() override {
    set_global_config(TxConfig::baseline());
    stats_reset();
  }
};

// Every preset maps onto exactly the specialized barrier path its name
// promises — checked at compile time, since BarrierPlan::compile is
// constexpr.
namespace plan_checks {
constexpr BarrierPlan kBaseline = BarrierPlan::compile(TxConfig::baseline());
static_assert(kBaseline.read == BarrierPath::kFull &&
              kBaseline.write == BarrierPath::kFull &&
              kBaseline.log == ActiveLog::kNone);

constexpr BarrierPlan kRw =
    BarrierPlan::compile(TxConfig::runtime_rw(AllocLogKind::kArray));
static_assert(kRw.read == BarrierPath::kStackHeapPrivArray &&
              kRw.write == BarrierPath::kStackHeapPrivArray &&
              kRw.log == ActiveLog::kArray);

constexpr BarrierPlan kW =
    BarrierPlan::compile(TxConfig::runtime_w(AllocLogKind::kFilter));
static_assert(kW.read == BarrierPath::kFull &&
              kW.write == BarrierPath::kStackHeapPrivFilter &&
              kW.log == ActiveLog::kFilter);

constexpr BarrierPlan kHeapW =
    BarrierPlan::compile(TxConfig::runtime_heap_w(AllocLogKind::kTree));
static_assert(kHeapW.read == BarrierPath::kFull &&
              kHeapW.write == BarrierPath::kHeapTree &&
              kHeapW.log == ActiveLog::kTree);

constexpr BarrierPlan kCompiler = BarrierPlan::compile(TxConfig::compiler());
static_assert(kCompiler.read == BarrierPath::kStatic &&
              kCompiler.write == BarrierPath::kStatic &&
              kCompiler.log == ActiveLog::kNone);

constexpr BarrierPlan kCounting = BarrierPlan::compile(TxConfig::counting());
static_assert(kCounting.read == BarrierPath::kCounting &&
              kCounting.write == BarrierPath::kCounting &&
              kCounting.log == ActiveLog::kTree);

// The whole config space: every Barriers value crossed with every
// AllocLogKind compiles to a specialized path. Presets without a heap check
// ignore alloc_log; counting always classifies with the tree; the runtime
// presets pick the family member (and the active log) for the kind.
struct LogRow {
  AllocLogKind kind;
  BarrierPath stack_heap_priv;
  BarrierPath heap;
  ActiveLog log;
};

constexpr bool plan_is(Barriers b, AllocLogKind k, BarrierPath read,
                       BarrierPath write, ActiveLog log) {
  const BarrierPlan p = BarrierPlan::compile(TxConfig{b, k});
  return p.read == read && p.write == write && p.log == log;
}

constexpr bool every_barriers_value_specialized(const LogRow& r) {
  using P = BarrierPath;
  return plan_is(Barriers::kFull, r.kind, P::kFull, P::kFull,
                 ActiveLog::kNone) &&
         plan_is(Barriers::kStatic, r.kind, P::kStatic, P::kStatic,
                 ActiveLog::kNone) &&
         plan_is(Barriers::kRuntimeRW, r.kind, r.stack_heap_priv,
                 r.stack_heap_priv, r.log) &&
         plan_is(Barriers::kRuntimeW, r.kind, P::kFull, r.stack_heap_priv,
                 r.log) &&
         plan_is(Barriers::kRuntimeHeapW, r.kind, P::kFull, r.heap, r.log) &&
         plan_is(Barriers::kCounting, r.kind, P::kCounting, P::kCounting,
                 ActiveLog::kTree);
}

static_assert(every_barriers_value_specialized(
    {AllocLogKind::kTree, BarrierPath::kStackHeapPrivTree,
     BarrierPath::kHeapTree, ActiveLog::kTree}));
static_assert(every_barriers_value_specialized(
    {AllocLogKind::kArray, BarrierPath::kStackHeapPrivArray,
     BarrierPath::kHeapArray, ActiveLog::kArray}));
static_assert(every_barriers_value_specialized(
    {AllocLogKind::kFilter, BarrierPath::kStackHeapPrivFilter,
     BarrierPath::kHeapFilter, ActiveLog::kFilter}));
}  // namespace plan_checks

TEST_F(StmBasic, PlanFollowsConfigChanges) {
  // The plan is compiled at begin_top from the installed config; switching
  // configs between transactions must re-specialize the descriptor.
  set_global_config(TxConfig::runtime_rw(AllocLogKind::kArray));
  atomic([&](Tx& tx) {
    EXPECT_EQ(tx.plan.read, BarrierPath::kStackHeapPrivArray);
    EXPECT_EQ(tx.plan.log, ActiveLog::kArray);
  });
  set_global_config(TxConfig::baseline());
  atomic([&](Tx& tx) {
    EXPECT_EQ(tx.plan.read, BarrierPath::kFull);
    EXPECT_EQ(tx.plan.log, ActiveLog::kNone);
  });
}

TEST_F(StmBasic, CommitMakesWritesVisible) {
  std::uint64_t x = 1;
  atomic([&](Tx& tx) { tm_write(tx, &x, std::uint64_t{42}); });
  EXPECT_EQ(x, 42u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.aborts, 0u);
}

TEST_F(StmBasic, ReadReturnsCurrentValue) {
  std::uint64_t x = 7;
  std::uint64_t got = 0;
  atomic([&](Tx& tx) { got = tm_read(tx, &x); });
  EXPECT_EQ(got, 7u);
}

TEST_F(StmBasic, ReadOwnWriteSeesNewValue) {
  std::uint64_t x = 1;
  std::uint64_t got = 0;
  atomic([&](Tx& tx) {
    tm_write(tx, &x, std::uint64_t{99});
    got = tm_read(tx, &x);
  });
  EXPECT_EQ(got, 99u);
}

TEST_F(StmBasic, UserAbortRollsBack) {
  std::uint64_t x = 5;
  atomic([&](Tx& tx) {
    tm_write(tx, &x, std::uint64_t{1234});
    abort_tx();
  });
  EXPECT_EQ(x, 5u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.commits, 0u);
}

TEST_F(StmBasic, UserAbortRestoresMultipleWrites) {
  std::uint64_t a = 1, b = 2, c = 3;
  atomic([&](Tx& tx) {
    tm_write(tx, &a, std::uint64_t{10});
    tm_write(tx, &b, std::uint64_t{20});
    tm_write(tx, &c, std::uint64_t{30});
    abort_tx();
  });
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(c, 3u);
}

TEST_F(StmBasic, ExceptionCancelsAndPropagates) {
  std::uint64_t x = 5;
  EXPECT_THROW(atomic([&](Tx& tx) {
                 tm_write(tx, &x, std::uint64_t{77});
                 throw std::runtime_error("boom");
               }),
               std::runtime_error);
  EXPECT_EQ(x, 5u);
}

TEST_F(StmBasic, SubWordWritesRollBackExactly) {
  struct {
    std::uint8_t a = 1;
    std::uint8_t b = 2;
    std::uint16_t c = 3;
    std::uint32_t d = 4;
  } s;
  atomic([&](Tx& tx) {
    tm_write(tx, &s.a, std::uint8_t{9});
    tm_write(tx, &s.c, std::uint16_t{999});
    abort_tx();
  });
  EXPECT_EQ(s.a, 1);
  EXPECT_EQ(s.b, 2);
  EXPECT_EQ(s.c, 3);
  EXPECT_EQ(s.d, 4u);
}

TEST_F(StmBasic, WriteAfterWriteUsesOwnFastPath) {
  std::uint64_t x = 0;
  atomic([&](Tx& tx) {
    tm_write(tx, &x, std::uint64_t{1});
    tm_write(tx, &x, std::uint64_t{2});
    tm_write(tx, &x, std::uint64_t{3});
  });
  EXPECT_EQ(x, 3u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_own_fast, 2u);
}

TEST_F(StmBasic, OutsideTransactionAccessesArePlain) {
  std::uint64_t x = 11;
  Tx& tx = current_tx();
  EXPECT_EQ(tm_read(tx, &x), 11u);
  tm_write(tx, &x, std::uint64_t{12});
  EXPECT_EQ(x, 12u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.reads, 0u);  // not counted as barriers
  EXPECT_EQ(s.writes, 0u);
}

// -- Allocator integration ---------------------------------------------------

TEST_F(StmBasic, TxMallocSurvivesCommit) {
  std::uint64_t* p = nullptr;
  atomic([&](Tx& tx) {
    p = static_cast<std::uint64_t*>(tx_malloc(tx, 8));
    tm_write(tx, p, std::uint64_t{5});
  });
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, 5u);
  Tx& tx = current_tx();
  tx_free(tx, p);
}

TEST_F(StmBasic, TxMallocRolledBackOnUserAbort) {
  std::uint64_t allocs_before = Pool::local().stats().allocs;
  atomic([&](Tx& tx) {
    void* p = tx_malloc(tx, 64);
    (void)p;
    abort_tx();
  });
  // The block was returned to the pool: a fresh allocation reuses it.
  EXPECT_EQ(Pool::local().stats().allocs, allocs_before + 1);
  std::size_t usable = 0;
  void* q = Pool::local().allocate(64, &usable);
  ASSERT_NE(q, nullptr);
  Pool::deallocate(q);
}

TEST_F(StmBasic, FreeInTxDeferredUntilCommit) {
  Tx& tx0 = current_tx();
  auto* p = static_cast<std::uint64_t*>(tx_malloc(tx0, 8));
  *p = 123;
  atomic([&](Tx& tx) {
    tx_free(tx, p);
    abort_tx();  // free must not have happened
  });
  EXPECT_EQ(*p, 123u);  // still alive
  atomic([&](Tx& tx) { tx_free(tx, p); });  // now freed at commit
}

TEST_F(StmBasic, AllocThenFreeInSameTx) {
  atomic([&](Tx& tx) {
    void* p = tx_malloc(tx, 32);
    tx_free(tx, p);
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.tx_allocs, 1u);
  EXPECT_EQ(s.tx_frees, 1u);
}

// -- Capture elision fast paths ----------------------------------------------

TEST_F(StmBasic, HeapWritesToTxLocalMemoryAreElided) {
  set_global_config(TxConfig::runtime_w());
  std::uint64_t* out = nullptr;
  atomic([&](Tx& tx) {
    auto* p = static_cast<std::uint64_t*>(tx_malloc(tx, 64));
    for (int i = 0; i < 8; ++i) tm_write(tx, &p[i], std::uint64_t(i), kAutoSite);
    out = p;
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_elided_heap, 8u);
  EXPECT_EQ(out[7], 7u);
  tx_free(current_tx(), out);
}

TEST_F(StmBasic, StackAccessesAreElided) {
  set_global_config(TxConfig::runtime_rw());
  std::uint64_t result = 0;
  atomic([&](Tx& tx) {
    std::uint64_t local[4] = {0, 0, 0, 0};  // lives below start_sp
    for (int i = 0; i < 4; ++i) {
      tm_write(tx, &local[i], std::uint64_t(i + 1), kAutoSite);
    }
    std::uint64_t sum = 0;
    for (int i = 0; i < 4; ++i) sum += tm_read(tx, &local[i], kAutoSite);
    result = sum;
  });
  EXPECT_EQ(result, 10u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_elided_stack, 4u);
  EXPECT_EQ(s.read_elided_stack, 4u);
}

TEST_F(StmBasic, PreTxVariablesAreNotStackCaptured) {
  set_global_config(TxConfig::runtime_rw());
  std::uint64_t outer = 5;  // declared before atomic(): above start_sp
  atomic([&](Tx& tx) { tm_write(tx, &outer, std::uint64_t{6}, kAutoSite); });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_elided_stack, 0u);
  EXPECT_EQ(outer, 6u);
}

TEST_F(StmBasic, PrivateAnnotationElidesBarriers) {
  set_global_config(TxConfig::runtime_rw());
  static std::uint64_t table[16] = {};
  add_private_memory_block(table, sizeof(table));
  atomic([&](Tx& tx) {
    tm_write(tx, &table[3], std::uint64_t{7}, kAutoSite);
    (void)tm_read(tx, &table[3], kAutoSite);
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_elided_private, 1u);
  EXPECT_EQ(s.read_elided_private, 1u);
  remove_private_memory_block(table, sizeof(table));
  stats_reset();
  atomic([&](Tx& tx) { tm_write(tx, &table[3], std::uint64_t{8}, kAutoSite); });
  EXPECT_EQ(stats_snapshot().write_elided_private, 0u);
}

TEST_F(StmBasic, StaticElisionHonorsSiteFlag) {
  set_global_config(TxConfig::compiler());
  std::uint64_t heap_like = 0;
  atomic([&](Tx& tx) {
    tm_write(tx, &heap_like, std::uint64_t{1}, kAutoCapturedSite);
    (void)tm_read(tx, &heap_like, kAutoCapturedSite);
    tm_write(tx, &heap_like, std::uint64_t{2}, kSharedSite);  // full barrier
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_elided_static, 1u);
  EXPECT_EQ(s.read_elided_static, 1u);
  EXPECT_EQ(heap_like, 2u);
}

TEST_F(StmBasic, BaselineElidesNothing) {
  set_global_config(TxConfig::baseline());
  atomic([&](Tx& tx) {
    auto* p = static_cast<std::uint64_t*>(tx_malloc(tx, 8));
    tm_write(tx, p, std::uint64_t{1}, kAutoCapturedSite);
    tx_free(tx, p);
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.read_elided() + s.write_elided(), 0u);
}

// -- Count mode (Fig. 8 classification) ---------------------------------------

TEST_F(StmBasic, CountModeClassifiesAccesses) {
  set_global_config(TxConfig::counting());
  std::uint64_t shared = 0;
  atomic([&](Tx& tx) {
    std::uint64_t local = 0;
    auto* heap = static_cast<std::uint64_t*>(tx_malloc(tx, 8));
    tm_write(tx, heap, std::uint64_t{1}, kAutoSite);      // captured heap
    tm_write(tx, &local, std::uint64_t{2}, kAutoSite);    // captured stack
    tm_write(tx, &shared, std::uint64_t{3}, kSharedSite); // required
    (void)tm_read(tx, &shared, kAutoSite);                // not required, other
    tx_free(tx, heap);
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.write_cap_heap, 1u);
  EXPECT_EQ(s.write_cap_stack, 1u);
  EXPECT_EQ(s.write_required, 1u);
  EXPECT_EQ(s.read_not_required, 1u);
}

// -- Visibility across threads -------------------------------------------------

TEST_F(StmBasic, CommittedValueVisibleToOtherThread) {
  std::uint64_t x = 0;
  atomic([&](Tx& tx) { tm_write(tx, &x, std::uint64_t{21}); });
  std::uint64_t seen = 0;
  std::thread([&] {
    atomic([&](Tx& tx) { seen = tm_read(tx, &x); });
  }).join();
  EXPECT_EQ(seen, 21u);
}

}  // namespace
}  // namespace cstm
