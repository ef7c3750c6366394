// Integration tests: every STAMP application must run to completion and
// pass its own verification, sequentially and with threads, under baseline
// and under the optimization configurations. A failed verification aborts
// the process (run_app enforces it), so these tests double as end-to-end
// correctness checks of the whole stack: STM + capture analysis + allocator
// + containers + application logic.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "stamp/app.hpp"
#include "stm/stm.hpp"

namespace cstm {
namespace {

struct Case {
  std::string app;
  int threads;
  const char* cfg_name;
  TxConfig cfg;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  const std::vector<std::pair<const char*, TxConfig>> cfgs = {
      {"baseline", TxConfig::baseline()},
      {"rt_rw_tree", TxConfig::runtime_rw(AllocLogKind::kTree)},
      {"rt_rw_array", TxConfig::runtime_rw(AllocLogKind::kArray)},
      {"rt_rw_filter", TxConfig::runtime_rw(AllocLogKind::kFilter)},
      {"compiler", TxConfig::compiler()},
      {"counting", TxConfig::counting()},
  };
  for (const auto& app : stamp::app_names()) {
    for (const auto& [cfg_name, cfg] : cfgs) {
      out.push_back(Case{app, 1, cfg_name, cfg});
      out.push_back(Case{app, 4, cfg_name, cfg});
    }
  }
  return out;
}

class StampApps : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StampApps, RunsAndVerifies) {
  const Case c = cases()[GetParam()];
  harness::Options opt;
  opt.scale = 0.05;  // tiny inputs: this is a correctness test, not a bench
  opt.reps = 1;
  const harness::RunResult res = harness::run_once(c.app, c.threads, c.cfg, opt);
  EXPECT_GT(res.stats.commits, 0u) << c.app;
  // verify() already ran inside run_app (aborts on failure).
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllAppsAllConfigs, StampApps,
                         ::testing::Range<std::size_t>(0, cases().size()),
                         [](const auto& info) {
                           const Case c = cases()[info.param];
                           std::string name = c.app + "_" + c.cfg_name + "_t" +
                                              std::to_string(c.threads);
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

// The barrier profiles the paper reports must show up in our apps.
TEST(StampProfiles, VacationHasCapturedWritesAndStackIterators) {
  harness::Options opt;
  opt.scale = 0.05;
  const auto res =
      harness::run_once("vacation-high", 1, TxConfig::counting(), opt);
  const TxStats& s = res.stats;
  EXPECT_GT(s.write_cap_heap, 0u);    // map/list node inits
  EXPECT_GT(s.write_cap_stack, 0u);   // iterators on tx-local stack
  EXPECT_GT(s.read_required, 0u);     // shared tree traversals
}

TEST(StampProfiles, KmeansHasNoCaptureOpportunity) {
  harness::Options opt;
  opt.scale = 0.05;
  const auto res = harness::run_once("kmeans-high", 1, TxConfig::counting(), opt);
  const TxStats& s = res.stats;
  EXPECT_EQ(s.write_cap_heap, 0u);
  EXPECT_EQ(s.write_cap_stack, 0u);
  EXPECT_EQ(s.read_cap_heap, 0u);
}

TEST(StampProfiles, LabyrinthHasNoRedundantBarriers) {
  harness::Options opt;
  opt.scale = 0.05;
  const auto res = harness::run_once("labyrinth", 1, TxConfig::counting(), opt);
  const TxStats& s = res.stats;
  EXPECT_EQ(s.read_cap_heap + s.read_cap_stack + s.read_not_required, 0u);
  EXPECT_EQ(s.write_cap_heap + s.write_cap_stack + s.write_not_required, 0u);
}

TEST(StampProfiles, YadaIsWriteAndAllocationHeavy) {
  harness::Options opt;
  opt.scale = 0.05;
  const auto res = harness::run_once("yada", 1, TxConfig::counting(), opt);
  const TxStats& s = res.stats;
  EXPECT_GT(s.tx_allocs, 0u);
  EXPECT_GT(s.write_cap_heap, 0u);
}

TEST(StampProfiles, BayesUsesAnnotatedPrivateMemory) {
  harness::Options opt;
  opt.scale = 0.05;
  const auto res = harness::run_once("bayes", 1, TxConfig::runtime_rw(), opt);
  const TxStats& s = res.stats;
  EXPECT_GT(s.write_elided_private + s.read_elided_private, 0u);
}

TEST(StampProfiles, VacationCompilerElidesStatically) {
  harness::Options opt;
  opt.scale = 0.05;
  const auto res = harness::run_once("vacation-low", 1, TxConfig::compiler(), opt);
  const TxStats& s = res.stats;
  EXPECT_GT(s.write_elided_static, 0u);
}

// Setup fingerprint: on 1 thread under full barriers a run is a pure
// function of the inputs setup builds (bayes's task list, vacation's and
// yada's treaps, the Pool addresses behind them), so these counts pin those
// inputs. A change to any setup, builder or draw order moves them.
struct Fingerprint {
  const char* app;
  std::uint64_t commits, reads, writes, tx_allocs;
};

TEST(StampSetup, OneThreadFullBarrierCountsMatchRecordedInputs) {
  const Fingerprint expected[] = {
      {"bayes", 7891, 955496, 263738, 369},
      {"vacation-low", 8192, 2799470, 224560, 16208},
      {"yada", 1845, 467593, 121744, 9448},
  };
  harness::Options opt;
  opt.scale = 1.0;
  opt.seed = 7;
  for (const Fingerprint& f : expected) {
    const TxStats s =
        harness::run_once(f.app, 1, TxConfig::baseline(), opt).stats;
    EXPECT_EQ(s.commits, f.commits) << f.app;
    EXPECT_EQ(s.reads, f.reads) << f.app;
    EXPECT_EQ(s.writes, f.writes) << f.app;
    EXPECT_EQ(s.tx_allocs, f.tx_allocs) << f.app;
  }
}

}  // namespace
}  // namespace cstm
