// Advanced STM semantics: timestamp extension, false conflicts at orec
// granularity, contention policies, dead-stack undo filtering, opacity
// under mixed loads, and the harness plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stm/stm.hpp"
#include "support/random.hpp"

namespace cstm {
namespace {

class StmAdvanced : public ::testing::Test {
 protected:
  void SetUp() override {
    set_global_config(TxConfig::baseline());
    stats_reset();
  }
  void TearDown() override { set_global_config(TxConfig::baseline()); }
};

TEST_F(StmAdvanced, TimestampExtensionAllowsLateReads) {
  // Reader starts, another thread commits to an unrelated location, reader
  // then reads the freshly versioned location: extension must succeed (the
  // read set is still valid) rather than abort.
  alignas(64) std::uint64_t a = 1;
  alignas(128) std::uint64_t b = 2;
  std::uint64_t seen_a = 0, seen_b = 0;
  atomic([&](Tx& tx) {
    seen_a = tm_read(tx, &a);
    std::thread([&] {
      atomic([&](Tx& tx2) { tm_write(tx2, &b, std::uint64_t{20}); });
    }).join();
    seen_b = tm_read(tx, &b);  // version > start_ts: triggers extension
  });
  EXPECT_EQ(seen_a, 1u);
  EXPECT_EQ(seen_b, 20u);
  EXPECT_EQ(stats_snapshot().aborts, 0u);
}

TEST_F(StmAdvanced, ConflictingUpdateAfterReadAborts) {
  // Same shape, but the other thread commits to the location we already
  // read: the transaction must abort and retry with the new value.
  alignas(64) std::uint64_t a = 1;
  alignas(128) std::uint64_t b = 2;
  int attempts = 0;
  std::uint64_t sum = 0;
  atomic([&](Tx& tx) {
    ++attempts;
    sum = tm_read(tx, &a);
    if (attempts == 1) {
      std::thread([&] {
        atomic([&](Tx& tx2) { tm_write(tx2, &a, std::uint64_t{100}); });
      }).join();
    }
    sum += tm_read(tx, &b);
    tm_write(tx, &b, sum);  // force write-set commit validation
  });
  EXPECT_EQ(attempts, 2);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.aborts, 1u);
  EXPECT_EQ(s.aborts_validate, 1u);  // caught by commit-time validation
  EXPECT_EQ(b, 102u);
}

TEST_F(StmAdvanced, StaleReadSetAbortsInExtend) {
  // The other thread commits to BOTH locations after we read `a`: reading
  // `b` sees a version past our snapshot, and extending the snapshot fails
  // because `a` changed too. The abort is charged to extend(), not to
  // commit validation or the contention policy.
  alignas(64) std::uint64_t a = 1;
  alignas(128) std::uint64_t b = 2;
  int attempts = 0;
  std::uint64_t sum = 0;
  atomic([&](Tx& tx) {
    ++attempts;
    sum = tm_read(tx, &a);
    if (attempts == 1) {
      std::thread([&] {
        atomic([&](Tx& tx2) {
          tm_write(tx2, &a, std::uint64_t{10});
          tm_write(tx2, &b, std::uint64_t{20});
        });
      }).join();
    }
    sum += tm_read(tx, &b);
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(sum, 30u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.aborts, 1u);
  EXPECT_EQ(s.aborts_extend, 1u);
  EXPECT_EQ(s.aborts_validate, 0u);
  EXPECT_EQ(s.cm_aborts_backoff, 0u);
}

TEST_F(StmAdvanced, AbortCausesSumToAborts) {
  // Two threads move units between a few shared cells, reading all of them
  // first, so conflicts land in every cause: locked orecs, stale snapshots
  // and commit-time validation. Each abort has exactly one cause.
  alignas(64) std::uint64_t cells[4][8] = {};
  for (auto& c : cells) c[0] = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&cells, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < 4000; ++i) {
        const std::size_t from = rng.below(4);
        const std::size_t to = (from + 1 + rng.below(3)) % 4;
        atomic([&](Tx& tx) {
          std::uint64_t sum = 0;
          for (auto& c : cells) sum += tm_read(tx, &c[0]);
          (void)sum;
          const std::uint64_t have = tm_read(tx, &cells[from][0]);
          if (have == 0) return;
          tm_write(tx, &cells[from][0], have - 1);
          tm_write(tx, &cells[to][0], tm_read(tx, &cells[to][0]) + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  std::uint64_t total = 0;
  for (auto& c : cells) total += c[0];
  EXPECT_EQ(total, 4000u);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.aborts, s.cm_aborts_backoff + s.aborts_extend + s.aborts_validate);
}

TEST_F(StmAdvanced, CancelAfterConflictAbortResetsAbortCount) {
  // A top-level transaction that conflict-aborts and then ends WITHOUT
  // committing must not leave its abort count to the next transaction: the
  // count sets the first retry's backoff and the first merged batch size.
  Tx& self = current_tx();
  int runs = 0;
  atomic([&](Tx& tx) {
    if (runs++ == 0) tx.abort_self();  // as if a conflict hit attempt one
    abort_tx();                        // the retry user-cancels
  });
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(self.consecutive_aborts, 0u);

  runs = 0;
  EXPECT_THROW(atomic([&](Tx& tx) {
                 if (runs++ == 0) tx.abort_self();
                 throw std::runtime_error("escapes");
               }),
               std::runtime_error);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(self.consecutive_aborts, 0u);
}

TEST_F(StmAdvanced, FalseConflictsAtCacheLineGranularity) {
  // Two fields in one cache line map to one ownership record: a writer on
  // one field forces a reader of the other to revalidate (the false
  // conflicts the paper's elision reduces).
  struct alignas(64) Line {
    std::uint64_t x;
    std::uint64_t y;
  };
  Line line{1, 2};
  EXPECT_EQ(&orec_table().slot(&line.x), &orec_table().slot(&line.y));
  EXPECT_NE(&orec_table().slot(&line.x),
            &orec_table().slot(reinterpret_cast<char*>(&line) + 64));
}

// The full read barrier skips a read-set entry that would repeat the last
// one (same record, same observed word). These four cases pin what may and
// may not be skipped.
TEST_F(StmAdvanced, RepeatedReadOfOneLineKeepsOneReadSetEntry) {
  alignas(64) std::uint64_t line[8] = {};
  atomic([&](Tx& tx) {
    (void)tm_read(tx, &line[0]);
    (void)tm_read(tx, &line[5]);  // same line, same record
    EXPECT_EQ(tx.rs.size(), 1u);
  });
  atomic([&](Tx& tx) {
    (void)tm_read(tx, &line[3]);
    (void)tm_read(tx, &line[3]);  // one word twice
    EXPECT_EQ(tx.rs.size(), 1u);
  });
}

TEST_F(StmAdvanced, OnlyBackToBackRepeatsAreSkipped) {
  // A and B carry the same version word (one commit wrote both), so only
  // the record tells them apart.
  struct alignas(64) Line {
    std::uint64_t v[8];
  };
  Line a{}, b{};
  atomic([&](Tx& tx) {
    tm_write(tx, &a.v[0], std::uint64_t{1});
    tm_write(tx, &b.v[0], std::uint64_t{2});
  });
  ASSERT_EQ(orec_table().slot(&a).load(), orec_table().slot(&b).load());
  atomic([&](Tx& tx) {
    (void)tm_read(tx, &a.v[0]);
    (void)tm_read(tx, &b.v[0]);
    (void)tm_read(tx, &a.v[1]);
    EXPECT_EQ(tx.rs.size(), 3u);
  });
}

TEST_F(StmAdvanced, ChildRereadOfParentLineSurvivesPartialAbort) {
  alignas(64) std::uint64_t line[8] = {};
  alignas(64) std::uint64_t out = 0;
  atomic([&](Tx& tx) {
    (void)tm_read(tx, &line[0]);
    ASSERT_EQ(tx.rs.size(), 1u);
    const ReadEntry parent = tx.rs.back();
    atomic([&](Tx& inner) {
      (void)tm_read(inner, &line[1]);  // skipped: the parent's entry covers it
      EXPECT_EQ(inner.rs.size(), 1u);
      abort_tx();
    });
    ASSERT_EQ(tx.rs.size(), 1u);
    EXPECT_EQ(tx.rs.back().rec, parent.rec);
    EXPECT_EQ(tx.rs.back().observed, parent.observed);
    tm_write(tx, &out, std::uint64_t{1});
  });
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.nested_partial_aborts, 1u);
  EXPECT_EQ(s.aborts, 0u);
  EXPECT_EQ(out, 1u);
}

TEST_F(StmAdvanced, VersionBumpBetweenRepeatedReadsAbortsAtCommit) {
  // The record of `line` changes between two reads to a word that is still
  // inside the snapshot, so the second read neither conflicts nor extends.
  // It must be logged (its word differs from the last entry's) and the
  // commit must fail validation. The injected bump draws a clock stamp, as
  // the commit of a writer would, so the commit really revalidates.
  alignas(64) std::uint64_t line[8] = {};
  alignas(64) std::uint64_t out = 0;
  atomic([&](Tx& tx) { tm_write(tx, &line[0], std::uint64_t{1}); });
  atomic([&](Tx& tx) { tm_write(tx, &out, std::uint64_t{1}); });
  auto& rec = orec_table().slot(&line[0]);
  int attempts = 0;
  atomic([&](Tx& tx) {
    ++attempts;
    (void)tm_read(tx, &line[0]);
    if (attempts == 1) {
      const std::uint64_t seen = rec.load();
      ASSERT_LT(orec::version_of(seen), tx.start_ts);
      rec.store(orec::make_version(orec::version_of(seen) + 1));
      (void)global_clock().advance();
    }
    (void)tm_read(tx, &line[1]);
    EXPECT_EQ(tx.rs.size(), attempts == 1 ? 2u : 1u);
    tm_write(tx, &out, std::uint64_t{2});
  });
  EXPECT_EQ(attempts, 2);
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.aborts, 1u);
  EXPECT_EQ(s.aborts_validate, 1u);
}

TEST_F(StmAdvanced, AdjacentPoolBlocksNeverFalseConflict) {
  // Pairs of 40-byte objects from adjacent allocations of one pool; thread
  // 0 owns the first object of each pair, thread 1 the second. Each thread
  // repeatedly commits writes to every field of its own objects and never
  // touches the other's, so any lock conflict between them is a false one.
  // Each pair comes from a fresh pool after a different prefix of small
  // blocks (0, 32, 48 and 80 bytes with headers), so the pairs start at
  // every 16-byte phase of a line; without the pool's line placement, two
  // of those phases put both objects of the pair on one line.
  struct Obj {
    std::uint64_t f[5];
  };
  static_assert(sizeof(Obj) == 40);
  const std::vector<std::vector<std::size_t>> prefixes = {
      {}, {16}, {32}, {16, 32}};
  constexpr std::uint64_t kRounds = 10000;
  std::vector<Pool> pools(prefixes.size());
  std::vector<Obj*> owned[2];
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    for (const std::size_t n : prefixes[i]) pools[i].allocate(n);
    for (auto& mine : owned) {
      mine.push_back(::new (pools[i].allocate(sizeof(Obj))) Obj{});
    }
  }
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (auto& mine : owned) {
    threads.emplace_back([&ready, &mine] {
      ready.fetch_add(1);
      while (ready.load() < 2) cpu_relax();
      for (std::uint64_t i = 1; i <= kRounds; ++i) {
        atomic([&](Tx& tx) {
          for (Obj* o : mine) {
            for (auto& f : o->f) tm_write(tx, &f, i);
          }
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& mine : owned) {
    for (const Obj* o : mine) {
      for (const std::uint64_t f : o->f) EXPECT_EQ(f, kRounds);
    }
  }
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.commits, 2 * kRounds);
  EXPECT_EQ(s.cm_aborts_backoff, 0u);
}

TEST_F(StmAdvanced, BackoffLosesNoIncrementUnderContention) {
  set_global_config(TxConfig::baseline());
  stats_reset();
  alignas(64) std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        atomic([&](Tx& tx) { tm_add(tx, &counter, std::uint64_t{1}); });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 40000u);
}

TEST_F(StmAdvanced, ReadOnlyTransactionsDoNotAdvanceClock) {
  std::uint64_t x = 5;
  const std::uint64_t before = global_clock().load();
  for (int i = 0; i < 100; ++i) {
    atomic([&](Tx& tx) { (void)tm_read(tx, &x); });
  }
  EXPECT_EQ(global_clock().load(), before);
}

TEST_F(StmAdvanced, WritingTransactionsAdvanceClockOnce) {
  // A writing commit draws exactly ONE stamp, however many writes it made:
  // a sole committer advances the clock by exactly 1 per commit.
  std::uint64_t x = 5;
  std::uint64_t prev = global_clock().load();
  constexpr int kCommits = 10;
  for (int i = 0; i < kCommits; ++i) {
    atomic([&](Tx& tx) {
      tm_write(tx, &x, std::uint64_t(i));
      tm_write(tx, &x, std::uint64_t(i + 1));  // same orec: no extra stamp
    });
    const std::uint64_t now = global_clock().load();
    EXPECT_EQ(now, prev + 1) << "commit " << i;
    prev = now;
  }
}

TEST_F(StmAdvanced, DeadStackUndoIsFiltered) {
  // A transaction writes a local through a full barrier, then aborts at
  // commit time (validation failure forced by a helper thread). The undo
  // entry targets a dead frame; restoring it would smash the commit path's
  // own stack. Passing this test at -O2 is the regression check for that.
  alignas(64) std::uint64_t shared_a = 0;
  int attempts = 0;
  atomic([&](Tx& tx) {
    ++attempts;
    std::uint64_t local[16];
    for (int i = 0; i < 16; ++i) {
      tm_write(tx, &local[i], std::uint64_t(i), kAutoSite);
    }
    (void)tm_read(tx, &shared_a);
    if (attempts == 1) {
      // Invalidate the read set so commit-time validation fails.
      std::thread([&] {
        atomic([&](Tx& tx2) { tm_add(tx2, &shared_a, std::uint64_t{1}); });
      }).join();
      tm_write(tx, &shared_a, std::uint64_t{99});  // aborts here or at commit
    }
  });
  EXPECT_GE(attempts, 2);
}

TEST_F(StmAdvanced, OpacityUnderMixedLoad) {
  // Invariant pair updated atomically; concurrent transactions compute with
  // the values (a zombie computing with inconsistent values would trip the
  // EXPECT below before aborting — our barriers must never return
  // inconsistent data).
  alignas(64) std::uint64_t u = 10;
  alignas(128) std::uint64_t v = 10;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(77 + static_cast<std::uint64_t>(t));
      while (!stop.load()) {
        if (rng.below(2) == 0) {
          atomic([&](Tx& tx) {
            const std::uint64_t nu = rng.below(1000);
            tm_write(tx, &u, nu);
            tm_write(tx, &v, nu);
          });
        } else {
          std::uint64_t ru = 0, rv = 0;
          atomic([&](Tx& tx) {
            ru = tm_read(tx, &u);
            rv = tm_read(tx, &v);
          });
          if (ru != rv) bad.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST_F(StmAdvanced, StatsResetZeroesEverything) {
  std::uint64_t x = 0;
  atomic([&](Tx& tx) { tm_write(tx, &x, std::uint64_t{1}); });
  EXPECT_GT(stats_snapshot().commits, 0u);
  stats_reset();
  const TxStats s = stats_snapshot();
  EXPECT_EQ(s.commits, 0u);
  EXPECT_EQ(s.writes, 0u);
}

TEST_F(StmAdvanced, StatsSurviveThreadExit) {
  std::thread([] {
    std::uint64_t x = 0;
    atomic([&](Tx& tx) { tm_write(tx, &x, std::uint64_t{1}); });
  }).join();
  EXPECT_GE(stats_snapshot().commits, 1u);  // retired into the accumulator
}

TEST_F(StmAdvanced, ConfigChangesApplyAtNextTransaction) {
  std::uint64_t x = 0;
  set_global_config(TxConfig::runtime_w());
  atomic([&](Tx& tx) {
    EXPECT_EQ(tx.cfg.barriers, Barriers::kRuntimeW);
    tm_write(tx, &x, std::uint64_t{1});
  });
  set_global_config(TxConfig::baseline());
  atomic([&](Tx& tx) { EXPECT_EQ(tx.cfg.barriers, Barriers::kFull); });
}

TEST_F(StmAdvanced, SiteDefaultsAreShared) {
  // A barrier without an explicit site counts as manually instrumented
  // (required) in count mode.
  set_global_config(TxConfig::counting());
  stats_reset();
  std::uint64_t x = 0;
  atomic([&](Tx& tx) { tm_write(tx, &x, std::uint64_t{1}); });
  EXPECT_EQ(stats_snapshot().write_required, 1u);
}

}  // namespace
}  // namespace cstm
