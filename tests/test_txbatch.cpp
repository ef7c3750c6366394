// txbatch merge layer: FIFO merging, completion tokens, the compatibility
// policy hook, and — the part that earns the subsystem its place — per-sub-
// transaction abort compensation: an op that user-aborts inside a merged
// batch is rolled back by the nested partial-abort machinery (captured
// memory included) and requeued or failed INDIVIDUALLY, leaving its
// siblings' effects committed. Conflict aborts are injected with
// Tx::abort_self() to drive the shrink-on-retry prefix and the adaptive
// window without a second thread; one two-thread stress runs them for real.
#include <gtest/gtest.h>

#include <barrier>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stamp/app.hpp"
#include "stm/stm.hpp"
#include "support/random.hpp"

namespace cstm {
namespace {

class TxBatch : public ::testing::Test {
 protected:
  void SetUp() override {
    set_global_config(TxConfig::baseline());
    stats_reset();
  }
  void TearDown() override { set_global_config(TxConfig::baseline()); }
};

TEST_F(TxBatch, DrainRunsOpsInFifoOrder) {
  txbatch::BatcherOptions opts;
  opts.max_batch = 64;  // nothing flushes until drain
  txbatch::Batcher batcher(opts);
  std::vector<int> order;
  std::vector<txbatch::Completion> tokens;
  for (int i = 0; i < 5; ++i) {
    tokens.push_back(
        batcher.enqueue([&order, i](Tx&) { order.push_back(i); }));
  }
  EXPECT_EQ(batcher.pending(), 5u);
  for (const auto& t : tokens) EXPECT_EQ(t.state(), txbatch::OpState::kPending);
  batcher.drain();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  for (const auto& t : tokens) {
    EXPECT_TRUE(t.committed());
    EXPECT_EQ(t.attempts(), 1u);
  }
  EXPECT_EQ(batcher.stats().batches, 1u);
  EXPECT_EQ(batcher.stats().ops_enqueued, 5u);
  EXPECT_EQ(batcher.stats().ops_committed, 5u);
  EXPECT_EQ(batcher.stats().ops_failed, 0u);
  // One merged batch = ONE top-level commit.
  EXPECT_EQ(stats_snapshot().commits, 1u);
}

TEST_F(TxBatch, SizeTriggeredFlushInsideEnqueue) {
  txbatch::BatcherOptions opts;
  opts.max_batch = 4;
  txbatch::Batcher batcher(opts);
  std::uint64_t cell = 0;
  for (int i = 0; i < 4; ++i) {
    batcher.enqueue([&cell](Tx& tx) { tm_write(tx, &cell, tm_read(tx, &cell) + 1); });
  }
  // The 4th enqueue hit max_batch and flushed synchronously.
  EXPECT_EQ(batcher.pending(), 0u);
  EXPECT_EQ(batcher.stats().batches, 1u);
  EXPECT_EQ(cell, 4u);
}

TEST_F(TxBatch, CompensatedAbortLeavesSiblingsCommitted) {
  // Op 3 of 8 deliberately aborts: ops 0..2 stay committed, ops 4..7 run
  // unaffected, and only op 3 is failed (no retry budget).
  txbatch::BatcherOptions opts;
  opts.max_batch = 8;
  txbatch::Batcher batcher(opts);
  std::uint64_t cells[8] = {};
  std::vector<txbatch::Completion> tokens;
  for (int i = 0; i < 8; ++i) {
    tokens.push_back(batcher.enqueue([&cells, i](Tx& tx) {
      tm_write(tx, &cells[i], std::uint64_t{1});
      if (i == 3) abort_tx();
    }));
  }
  batcher.drain();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(cells[i], i == 3 ? 0u : 1u) << "cell " << i;
    EXPECT_EQ(tokens[static_cast<std::size_t>(i)].committed(), i != 3);
  }
  EXPECT_TRUE(tokens[3].failed());
  EXPECT_EQ(batcher.stats().ops_committed, 7u);
  EXPECT_EQ(batcher.stats().ops_failed, 1u);
  EXPECT_EQ(batcher.stats().ops_requeued, 0u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.commits, 1u);  // the merged transaction still committed
  EXPECT_EQ(s.nested_partial_aborts, 1u);
  EXPECT_EQ(s.batch_flushes, 1u);
  EXPECT_EQ(s.batch_ops, 8u);
  EXPECT_EQ(s.batch_op_compensations, 1u);
}

TEST_F(TxBatch, CompensationRestoresCapturedMemory) {
  // The aborting op writes to memory CAPTURED by an earlier sibling (heap
  // allocated in the same outer transaction, so its write barrier is
  // elided). The nested undo path must restore it anyway.
  set_global_config(TxConfig::runtime_w());
  txbatch::BatcherOptions opts;
  opts.max_batch = 4;
  txbatch::Batcher batcher(opts);
  std::uint64_t* block = nullptr;
  std::uint64_t observed = 0;
  batcher.enqueue([&block](Tx& tx) {
    block = static_cast<std::uint64_t*>(tx_malloc(tx, 8));
    tm_write(tx, block, std::uint64_t{100}, kAutoSite);  // elided (captured)
  });
  batcher.enqueue([&block](Tx& tx) {
    tm_write(tx, block, std::uint64_t{999}, kAutoSite);  // elided + undo-logged
    abort_tx();
  });
  batcher.enqueue([&block, &observed](Tx& tx) {
    observed = tm_read(tx, block, kAutoSite);
    tx_free(tx, block);
  });
  batcher.drain();
  EXPECT_EQ(observed, 100u);  // sibling's 999 was rolled back
  const TxStats s = stats_snapshot();
  EXPECT_GE(s.write_elided_heap, 2u);
  EXPECT_EQ(s.nested_partial_aborts, 1u);
}

TEST_F(TxBatch, RequeueBudgetRetriesCompensatedOp) {
  txbatch::BatcherOptions opts;
  opts.max_batch = 2;
  opts.max_retries = 1;
  txbatch::Batcher batcher(opts);
  std::uint64_t cell = 0;
  int executions = 0;  // plain local: survives the rollback
  auto flaky = batcher.enqueue([&](Tx& tx) {
    if (executions++ == 0) abort_tx();  // fail the first attempt only
    tm_write(tx, &cell, std::uint64_t{7});
  });
  batcher.enqueue([](Tx&) {});
  batcher.drain();  // drain keeps flushing until the requeue settles
  EXPECT_TRUE(flaky.committed());
  EXPECT_EQ(flaky.attempts(), 2u);
  EXPECT_EQ(cell, 7u);
  EXPECT_EQ(batcher.stats().ops_requeued, 1u);
  EXPECT_EQ(batcher.stats().ops_failed, 0u);
  EXPECT_EQ(batcher.stats().batches, 2u);
}

TEST_F(TxBatch, ExhaustedRetryBudgetFailsOp) {
  txbatch::BatcherOptions opts;
  opts.max_batch = 1;
  opts.max_retries = 2;
  txbatch::Batcher batcher(opts);
  auto doomed = batcher.enqueue([](Tx&) { abort_tx(); });
  batcher.drain();
  EXPECT_TRUE(doomed.failed());
  EXPECT_EQ(doomed.attempts(), 3u);  // initial run + 2 requeues
  EXPECT_EQ(batcher.stats().ops_requeued, 2u);
  EXPECT_EQ(batcher.stats().ops_failed, 1u);
}

TEST_F(TxBatch, MergePolicySplitsIncompatibleOps) {
  // Same-tag-only policy: tags A A B B A must produce three batches
  // (A A | B B | A) — the policy closes a batch, never reorders the queue.
  txbatch::BatcherOptions opts;
  opts.max_batch = 16;
  opts.policy = [](const txbatch::OpInfo& head, const txbatch::OpInfo& cand) {
    return head.tag == cand.tag;
  };
  txbatch::Batcher batcher(opts);
  std::vector<std::uint64_t> order;
  for (std::uint64_t tag : {0u, 0u, 1u, 1u, 0u}) {
    batcher.enqueue([&order, tag](Tx&) { order.push_back(tag); }, tag);
  }
  batcher.drain();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 0, 1, 1, 0}));
  EXPECT_EQ(batcher.stats().batches, 3u);
  EXPECT_EQ(stats_snapshot().commits, 3u);
}

TEST_F(TxBatch, DeadlineFlushesOverdueOpsBeforeNewcomerJoins) {
  txbatch::BatcherOptions opts;
  opts.max_batch = 64;
  opts.max_delay = std::chrono::microseconds{500};
  txbatch::Batcher batcher(opts);
  auto first = batcher.enqueue([](Tx&) {});
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  auto second = batcher.enqueue([](Tx&) {});
  // The overdue queue flushed before the second op joined it.
  EXPECT_TRUE(first.committed());
  EXPECT_EQ(second.state(), txbatch::OpState::kPending);
  EXPECT_EQ(batcher.pending(), 1u);
  batcher.drain();
  EXPECT_TRUE(second.committed());
}

TEST_F(TxBatch, EscapingExceptionCancelsWholeBatch) {
  // A non-transactional exception is NOT compensated per-op: the outer
  // transaction it ran in cancels, every sibling's effects in it are
  // discarded, every undecided op of the flush is failed, and the exception
  // reaches the caller. A lone thread never conflicts, so its window stays
  // at max_batch and the whole flush is that one outer transaction.
  txbatch::BatcherOptions opts;
  opts.max_batch = 64;  // keep enqueue from flushing; the throw happens in drain
  txbatch::Batcher batcher(opts);
  std::uint64_t cell = 0;
  auto a = batcher.enqueue(
      [&cell](Tx& tx) { tm_write(tx, &cell, std::uint64_t{1}); });
  auto b = batcher.enqueue([](Tx&) { throw std::runtime_error("boom"); });
  auto c = batcher.enqueue(
      [&cell](Tx& tx) { tm_write(tx, &cell, std::uint64_t{2}); });
  EXPECT_THROW(batcher.drain(), std::runtime_error);
  EXPECT_EQ(cell, 0u);  // sibling's write rolled back with the cancel
  EXPECT_TRUE(a.failed());
  EXPECT_TRUE(b.failed());
  EXPECT_TRUE(c.failed());
  EXPECT_EQ(batcher.stats().ops_failed, 3u);
  EXPECT_EQ(stats_snapshot().commits, 0u);
}

// Op i of a drained batch appends i to a transactional log, so the log
// holds each COMMITTED run once, in commit order; `runs` is a plain
// counter that rollback does not touch.
struct OpLog {
  std::uint64_t next = 0;
  std::uint64_t slot[64] = {};
  int runs[64] = {};

  void record(Tx& tx, std::size_t i) {
    ++runs[i];
    const std::uint64_t pos = tm_read(tx, &next);
    tm_write(tx, &slot[pos], static_cast<std::uint64_t>(i));
    tm_write(tx, &next, pos + 1);
  }
};

TEST_F(TxBatch, ConflictAbortShrinksRetryAndWindowRegrows) {
  // Op 5 of 8 conflict-aborts the outer transaction on its first run. The
  // retry runs only the first 8 >> 1 = 4 ops and commits them; the window
  // drops to 4, and the rest of the flush (ops 4..7) is a second outer
  // transaction. Every op commits exactly once, in FIFO order.
  txbatch::BatcherOptions opts;
  opts.max_batch = 8;
  txbatch::Batcher batcher(opts);
  EXPECT_EQ(batcher.window(), 8u);
  OpLog log;
  std::vector<txbatch::Completion> tokens;
  for (std::size_t i = 0; i < 8; ++i) {
    tokens.push_back(batcher.enqueue([&log, i](Tx& sub) {
      log.record(sub, i);
      if (i == 5 && log.runs[i] == 1) sub.abort_self();
    }));
  }
  EXPECT_EQ(batcher.pending(), 0u);  // the 8th enqueue flushed
  ASSERT_EQ(log.next, 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(log.slot[i], i);
    EXPECT_TRUE(tokens[i].committed());
    EXPECT_EQ(tokens[i].attempts(), 1u);  // the aborted attempt is not one
    // Ops 0..5 ran in the aborted attempt too; 6 and 7 never did.
    EXPECT_EQ(log.runs[i], i < 6 ? 2 : 1) << "op " << i;
  }
  EXPECT_EQ(batcher.stats().batches, 2u);
  EXPECT_EQ(batcher.stats().ops_committed, 8u);
  EXPECT_EQ(batcher.window(), 4u);
  TxStats s = stats_snapshot();
  EXPECT_EQ(s.aborts, 1u);
  EXPECT_EQ(s.commits, 2u);
  EXPECT_EQ(s.batch_flushes, 2u);
  EXPECT_EQ(s.batch_ops, 8u);
  EXPECT_EQ(s.batch_ops_reexecuted, 6u);

  // The window grows by one after `window` consecutive clean commits: the
  // second chunk above was the first clean one at 4, so 3 + 5 + 6 + 7
  // single-op flushes bring it back to max_batch, and there it stays.
  std::size_t flushes = 0;
  std::size_t last = batcher.window();
  while (batcher.window() < opts.max_batch && flushes < 100) {
    batcher.enqueue([](Tx&) {});
    batcher.flush();
    ++flushes;
    EXPECT_GE(batcher.window(), last);
    last = batcher.window();
  }
  EXPECT_EQ(flushes, 21u);
  for (int i = 0; i < 20; ++i) {
    batcher.enqueue([](Tx&) {});
    batcher.flush();
  }
  EXPECT_EQ(batcher.window(), opts.max_batch);
  s = stats_snapshot();
  EXPECT_EQ(s.aborts, 1u);
  EXPECT_EQ(s.batch_ops_reexecuted, 6u);
}

TEST_F(TxBatch, RepeatedConflictsHalveTheAttemptDownToOneOp) {
  // Op 0 conflict-aborts on its first three runs: the attempts run 8, 4, 2
  // and then 1 op, which commits alone. The window follows to 1 and then
  // regrows inside the same flush, one step per `window` clean commits:
  // op 1 alone (window 1 -> 2), ops 2-3, ops 4-5 (2 -> 3), ops 6-7.
  txbatch::BatcherOptions opts;
  opts.max_batch = 8;
  txbatch::Batcher batcher(opts);
  OpLog log;
  for (std::size_t i = 0; i < 8; ++i) {
    batcher.enqueue([&log, i](Tx& sub) {
      log.record(sub, i);
      if (i == 0 && log.runs[0] <= 3) sub.abort_self();
    });
  }
  ASSERT_EQ(log.next, 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(log.slot[i], i);
  EXPECT_EQ(log.runs[0], 4);
  EXPECT_EQ(batcher.window(), 3u);
  EXPECT_EQ(batcher.stats().batches, 5u);
  EXPECT_EQ(stats_snapshot().aborts, 3u);
}

TEST_F(TxBatch, CancelledTransactionLeavesNextBatchWhole) {
  // A top-level transaction that conflict-aborts and then user-cancels
  // ends with no commit. Its abort count must not carry over: the next
  // flush's first attempt runs the whole batch, not a halved one.
  int runs = 0;
  atomic([&](Tx& tx) {
    if (runs++ == 0) tx.abort_self();
    abort_tx();
  });
  txbatch::BatcherOptions opts;
  opts.max_batch = 8;
  txbatch::Batcher batcher(opts);
  for (int i = 0; i < 8; ++i) batcher.enqueue([](Tx&) {});
  EXPECT_EQ(batcher.stats().batches, 1u);
  EXPECT_EQ(batcher.window(), 8u);
}

TEST_F(TxBatch, EscapingExceptionAfterCommittedPrefixKeepsIt) {
  // Op 2 conflict-aborts once, so ops 0..3 commit as a shrunken prefix and
  // the window drops to 4. In the next outer transaction op 5 conflicts
  // (retry: ops 4..5) and then throws. Ops 0..3 stay committed; ops 4..7
  // fail, 4 and 5 after one cancelled run, 6 and 7 without running.
  txbatch::BatcherOptions opts;
  opts.max_batch = 64;  // keep enqueue from flushing; the throw happens in drain
  txbatch::Batcher batcher(opts);
  std::uint64_t cells[8] = {};
  int runs[8] = {};
  std::vector<txbatch::Completion> tokens;
  for (std::size_t i = 0; i < 8; ++i) {
    tokens.push_back(batcher.enqueue([&cells, &runs, i](Tx& sub) {
      tm_write(sub, &cells[i], std::uint64_t{1});
      ++runs[i];
      if ((i == 2 || i == 5) && runs[i] == 1) sub.abort_self();
      if (i == 5) throw std::runtime_error("boom");
    }));
  }
  EXPECT_THROW(batcher.drain(), std::runtime_error);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(cells[i], i < 4 ? 1u : 0u) << "cell " << i;
    EXPECT_EQ(tokens[i].state(),
              i < 4 ? txbatch::OpState::kCommitted : txbatch::OpState::kFailed);
    EXPECT_EQ(tokens[i].attempts(), i < 6 ? 1u : 0u) << "op " << i;
  }
  EXPECT_EQ(batcher.pending(), 0u);
  EXPECT_EQ(batcher.stats().ops_committed, 4u);
  EXPECT_EQ(batcher.stats().ops_failed, 4u);
  EXPECT_EQ(batcher.stats().batches, 1u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.aborts, 2u);
}

TEST_F(TxBatch, EmptyFlushIsANoOp) {
  txbatch::Batcher batcher;
  EXPECT_EQ(batcher.flush(), 0u);
  EXPECT_EQ(batcher.stats().batches, 0u);
  batcher.drain();
  EXPECT_EQ(stats_snapshot().commits, 0u);
}

TEST_F(TxBatch, BatchingAmortizesCommitsAndRaisesCaptureHits) {
  // The subsystem's reason to exist, in miniature: the same allocate-and-
  // link workload at batch 1 vs batch 16 must commit 16x fewer top-level
  // transactions and elide strictly more accesses (later ops read memory
  // captured earlier in the merged transaction).
  set_global_config(TxConfig::runtime_rw(AllocLogKind::kTree));
  constexpr int kOps = 32;
  auto run_at = [&](std::size_t batch_size) {
    stats_reset();
    txbatch::BatcherOptions opts;
    opts.max_batch = batch_size;
    txbatch::Batcher batcher(opts);
    std::uint64_t* head = nullptr;  // chain of [value, next] pairs
    for (int i = 0; i < kOps; ++i) {
      batcher.enqueue([&head, i](Tx& tx) {
        auto* node = static_cast<std::uint64_t*>(tx_malloc(tx, 16));
        tm_write(tx, node, static_cast<std::uint64_t>(i), kAutoSite);
        tm_write(tx, node + 1, reinterpret_cast<std::uint64_t>(head),
                 kAutoSite);
        // Walk the chain: at batch 1 every hop touches pre-batch memory;
        // merged, the freshest nodes are captured and barrier-free.
        for (std::uint64_t* p = node;
             p != nullptr;
             p = reinterpret_cast<std::uint64_t*>(tm_read(tx, p + 1, kAutoSite))) {
        }
        head = node;
      });
    }
    batcher.drain();
    return stats_snapshot();
  };
  const TxStats single = run_at(1);
  const TxStats merged = run_at(16);
  EXPECT_EQ(single.commits, 32u);
  EXPECT_EQ(merged.commits, 2u);
  EXPECT_GT(merged.capture_hit_percent(), single.capture_hit_percent());
}

TEST_F(TxBatch, TwoThreadTransfersConserveMoneyInEnqueueOrder) {
  // Two threads, each with its own Batcher, move money between a few shared
  // accounts. A transfer only happens when the source can cover it, so the
  // outcome depends on the order ops commit in. Cross-thread conflicts
  // abort merged batches, which then shrink. Checks: money is conserved,
  // every Completion is decided, and each thread's ops commit in the order
  // it enqueued them.
  constexpr int kThreads = 2;
  constexpr std::uint64_t kOps = 20000;
  constexpr std::size_t kAccounts = 4;
  struct alignas(64) Account {
    std::uint64_t balance = 100;
  };
  Account accounts[kAccounts];
  struct alignas(64) Progress {
    std::uint64_t committed = 0;  // ops of this thread committed so far
    std::uint64_t out_of_order = 0;
  };
  Progress progress[kThreads];
  std::vector<txbatch::BatcherStats> bstats(kThreads);
  std::vector<std::uint64_t> undecided(kThreads, 0);
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      txbatch::BatcherOptions opts;
      opts.max_batch = 16;
      txbatch::Batcher batcher(opts);
      Xoshiro256 rng(0x5eed + static_cast<std::uint64_t>(t));
      std::vector<txbatch::Completion> tokens;
      tokens.reserve(kOps);
      for (std::uint64_t seq = 0; seq < kOps; ++seq) {
        const std::size_t from = rng.below(kAccounts);
        const std::size_t to = (from + 1 + rng.below(kAccounts - 1)) % kAccounts;
        const std::uint64_t amount = 1 + rng.below(40);
        tokens.push_back(batcher.enqueue([&accounts, &mine = progress[t], from,
                                          to, amount, seq](Tx& tx) {
          const std::uint64_t done = tm_read(tx, &mine.committed);
          if (done != seq) {
            tm_write(tx, &mine.out_of_order, tm_read(tx, &mine.out_of_order) + 1);
          }
          tm_write(tx, &mine.committed, done + 1);
          const std::uint64_t have = tm_read(tx, &accounts[from].balance);
          if (have < amount) return;
          tm_write(tx, &accounts[from].balance, have - amount);
          tm_write(tx, &accounts[to].balance,
                   tm_read(tx, &accounts[to].balance) + amount);
        }));
      }
      batcher.drain();
      for (const auto& tok : tokens) undecided[t] += tok.committed() ? 0 : 1;
      bstats[t] = batcher.stats();
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t total = 0;
  for (const Account& a : accounts) total += a.balance;
  EXPECT_EQ(total, 100u * kAccounts);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(undecided[t], 0u) << "thread " << t;
    EXPECT_EQ(progress[t].committed, kOps) << "thread " << t;
    EXPECT_EQ(progress[t].out_of_order, 0u) << "thread " << t;
    EXPECT_EQ(bstats[t].ops_committed, kOps);
    EXPECT_EQ(bstats[t].ops_failed, 0u);
  }
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.batch_ops, kThreads * kOps);
  EXPECT_EQ(s.batch_flushes, bstats[0].batches + bstats[1].batches);
  EXPECT_EQ(s.commits, s.batch_flushes);
  EXPECT_EQ(s.aborts, s.cm_aborts_backoff + s.aborts_extend + s.aborts_validate);
}

}  // namespace
}  // namespace cstm

// The harness streaming runner on a real workload, small scale: every
// request replays through the Batcher and the app must still verify, at
// several merge factors, with zero lost requests.
namespace cstm::stamp {
namespace {

TEST(TxBatchStream, IntruderVerifiesAtEveryMergeFactor) {
  set_global_config(TxConfig::runtime_rw(AllocLogKind::kTree));
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
    stats_reset();
    auto app = make_app("intruder");
    AppParams params;
    params.threads = 2;
    params.scale = 0.05;
    std::uint64_t requests = 0;
    run_app_stream(*app, params, batch, &requests);  // aborts on verify failure
    EXPECT_GT(requests, 0u);
    const TxStats s = stats_snapshot();
    EXPECT_EQ(s.batch_ops, requests);
    EXPECT_EQ(s.batch_op_compensations, 0u);
  }
  set_global_config(TxConfig::baseline());
}

TEST(TxBatchStream, VacationVerifiesAtEveryMergeFactor) {
  set_global_config(TxConfig::runtime_rw(AllocLogKind::kTree));
  for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
    stats_reset();
    auto app = make_app("vacation-low");
    AppParams params;
    params.threads = 2;
    params.scale = 0.05;
    std::uint64_t requests = 0;
    run_app_stream(*app, params, batch, &requests);
    EXPECT_GT(requests, 0u);
    EXPECT_EQ(stats_snapshot().batch_ops, requests);
  }
  set_global_config(TxConfig::baseline());
}

}  // namespace
}  // namespace cstm::stamp
