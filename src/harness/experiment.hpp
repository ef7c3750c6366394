// Experiment driver: runs the STAMP applications under the paper's STM
// configurations and prints each table/figure of Section 4. One bench
// binary per experiment calls exactly one of these printers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stamp/app.hpp"
#include "stm/config.hpp"
#include "stm/stats.hpp"

namespace cstm::harness {

struct Options {
  double scale = 0.25;  // CI-sized by default; --scale 1 approaches paper-size
  int reps = 3;
  int threads = 16;     // the paper's maximum thread count
  std::uint64_t seed = 20090811;
  std::size_t batch = 0;  // --batch N: txbatch merge factor (0 = sweep 1/4/16/64)
  std::string json;     // when set: also write machine-readable results here
  /// --capture-log {tree|array|filter}: pins the allocation-log structure
  /// for the experiments that take one (txbatch_stream's merge sweep).
  /// Empty = experiment default.
  std::string capture_log;
};

/// Parses --scale/--reps/--threads/--seed/--batch/--capture-log/--json;
/// unknown flags abort with usage, and a non-numeric or out-of-range
/// --scale (<= 0), --reps or --threads (< 1) exits 2 with a message.
Options parse_options(int argc, char** argv);

struct RunResult {
  double seconds = 0.0;
  TxStats stats;
};

/// One complete benchmark execution under @p cfg. Installs the config,
/// resets statistics, runs, and collects the stats snapshot.
RunResult run_once(const std::string& app, int threads, const TxConfig& cfg,
                   const Options& opt);

/// The five named configurations of Tables 1-2 (baseline, tree, array,
/// filter, compiler) in paper order.
std::vector<std::pair<std::string, TxConfig>> table_configs();

// -- Experiment printers (paper Section 4) -----------------------------------

/// Static-analysis precision header: the per-kernel "sites total / proven /
/// demoted" table from the txir pipeline (src/txir/kernels.hpp). Printed at
/// the top of the figure-8/9/10 experiments so every elision figure carries
/// the compiler-elision ratios it depends on, and by scripts/check.sh so
/// analysis-precision regressions are visible in every CI run.
void analysis_stats();

void fig8_breakdown(const Options& opt);        // Figure 8 (a, b, c)
void fig9_removed(const Options& opt);          // Figure 9 (a, b)
void fig10_single_thread(const Options& opt);   // Figure 10
void fig11a_configs(const Options& opt);        // Figure 11 (a)
/// Thread-count sweep (1,2,4,...,opt.threads) of the fig11 contenders,
/// printing raw seconds per app x config x thread count. With --json this
/// writes the BENCH_scaling.json record a multi-core box will commit
/// (schema consumed, advisorily, by scripts/bench_gate.py).
void fig11a_scaling(const Options& opt);
void fig11b_structures(const Options& opt);     // Figure 11 (b)
void table1_aborts(const Options& opt);         // Table 1
void table2_variance(const Options& opt);       // Table 2

/// txbatch throughput-vs-merge-factor sweep: replays the vacation-low and
/// intruder request streams through txbatch::Batcher at batch sizes
/// {1, 4, 16, 64} (or just opt.batch when --batch is given) and prints a
/// per-row stats block — requests/s plus the capture-hit-rate% and
/// barriers-elided% that explain the curve. With --json this writes the
/// BENCH_txbatch.json record (schema consumed, advisorily, by
/// scripts/bench_gate.py).
void txbatch_stream(const Options& opt);

/// Durable mode across STAMP: seconds for the non-durable reference
/// (runtime stack+heap RW, filter log) vs the same config with durability
/// on vs capture-disabled durable (the flush-everything baseline), plus
/// the flushes-elided% and pwb/redo-entry counts that explain the gap. A
/// scratch DurableHeap backs the redo log so the flush traffic is real.
/// With --json this writes the BENCH_durable.json record (consumed
/// advisorily by scripts/bench_gate.py).
void durable_sweep(const Options& opt);

}  // namespace cstm::harness
