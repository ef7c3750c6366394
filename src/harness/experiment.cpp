#include "harness/experiment.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "durable/durable_heap.hpp"
#include "stm/stm.hpp"
#include "support/stats.hpp"
#include "txir/kernels.hpp"

namespace cstm::harness {

namespace {

[[noreturn]] void bad_value(const char* flag, const char* text,
                            const char* want) {
  std::fprintf(stderr, "%s wants %s, got '%s'\n", flag, want, text);
  std::exit(2);
}

/// Whole-string integer >= 1 (atoi would turn "x" into 0 and "-2" into a
/// negative count that later sizes a vector).
int positive_int(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || v < 1 || v > INT_MAX) {
    bad_value(flag, text, "an integer >= 1");
  }
  return static_cast<int>(v);
}

/// Whole-string unsigned integer (bare strtoull would turn "x" into 0 and
/// wrap "-1" to 2^64 - 1).
std::uint64_t unsigned_int(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (text[0] < '0' || text[0] > '9' || *end != '\0' || errno != 0) {
    bad_value(flag, text, "an unsigned integer");
  }
  return v;
}

double positive_double(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 || !(v > 0.0) ||
      !std::isfinite(v)) {
    bad_value(flag, text, "a number > 0");
  }
  return v;
}

}  // namespace

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--scale") == 0) {
      opt.scale = positive_double("--scale", need_value("--scale"));
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      opt.reps = positive_int("--reps", need_value("--reps"));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opt.threads = positive_int("--threads", need_value("--threads"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.seed = unsigned_int("--seed", need_value("--seed"));
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      opt.batch = static_cast<std::size_t>(
          positive_int("--batch", need_value("--batch")));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json = need_value("--json");
    } else if (std::strcmp(argv[i], "--capture-log") == 0) {
      opt.capture_log = need_value("--capture-log");
      AllocLogKind parsed;
      if (!alloc_log_from_name(opt.capture_log, &parsed)) {
        std::fprintf(stderr,
                     "--capture-log wants tree|array|filter, got %s\n",
                     opt.capture_log.c_str());
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      // ctest bit-rot gate: exercise every code path in seconds, not minutes.
      opt.scale = 0.01;
      opt.reps = 1;
      opt.threads = 2;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scale S] [--reps N] [--threads T] [--seed X] "
                   "[--batch B] [--capture-log tree|array|filter] "
                   "[--json FILE] [--smoke]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return opt;
}

RunResult run_once(const std::string& app, int threads, const TxConfig& cfg,
                   const Options& opt) {
  set_global_config(cfg);
  auto instance = stamp::make_app(app);
  stamp::AppParams params;
  params.threads = threads;
  params.seed = opt.seed;
  params.scale = opt.scale;
  stats_reset();
  RunResult result;
  result.seconds = stamp::run_app(*instance, params);
  result.stats = stats_snapshot();
  set_global_config(TxConfig::baseline());
  return result;
}

std::vector<std::pair<std::string, TxConfig>> table_configs() {
  return {
      {"baseline", TxConfig::baseline()},
      {"tree", TxConfig::runtime_rw(AllocLogKind::kTree)},
      {"array", TxConfig::runtime_rw(AllocLogKind::kArray)},
      {"filtering", TxConfig::runtime_rw(AllocLogKind::kFilter)},
      {"compiler", TxConfig::compiler()},
  };
}

namespace {

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                static_cast<double>(whole);
}

double median_seconds(const std::string& app, int threads, const TxConfig& cfg,
                      const Options& opt, TxStats* stats_out = nullptr) {
  std::vector<double> times;
  TxStats last;
  for (int r = 0; r < opt.reps; ++r) {
    const RunResult res = run_once(app, threads, cfg, opt);
    times.push_back(res.seconds);
    last = res.stats;
  }
  std::sort(times.begin(), times.end());
  if (stats_out != nullptr) *stats_out = last;
  return times[times.size() / 2];
}

void print_speedup_header() {
  std::printf("%-15s", "app");
}

}  // namespace

void analysis_stats() {
  std::printf("# Static capture analysis precision (txir kernels, inline depth 2)\n");
  std::printf("%s", txir::kernel_report_table().c_str());
}

void fig8_breakdown(const Options& opt) {
  analysis_stats();
  std::printf("# Figure 8: breakdown of compiler-inserted STM barriers (1 thread)\n");
  std::printf("# categories: captured-heap / captured-stack / not-required-other / required\n");
  std::printf("%-15s %10s %8s %8s %8s %8s   %10s %8s %8s %8s %8s\n", "app",
              "reads", "heap%", "stack%", "other%", "req%", "writes", "heap%",
              "stack%", "other%", "req%");
  TxStats all_sum;
  for (const auto& app : stamp::app_names()) {
    const RunResult res = run_once(app, 1, TxConfig::counting(), opt);
    const TxStats& s = res.stats;
    std::printf("%-15s %10llu %8.1f %8.1f %8.1f %8.1f   %10llu %8.1f %8.1f %8.1f %8.1f\n",
                app.c_str(),
                static_cast<unsigned long long>(s.reads),
                pct(s.read_cap_heap, s.reads), pct(s.read_cap_stack, s.reads),
                pct(s.read_not_required, s.reads), pct(s.read_required, s.reads),
                static_cast<unsigned long long>(s.writes),
                pct(s.write_cap_heap, s.writes), pct(s.write_cap_stack, s.writes),
                pct(s.write_not_required, s.writes),
                pct(s.write_required, s.writes));
    all_sum.add(s);
  }
  const std::uint64_t accesses = all_sum.reads + all_sum.writes;
  std::printf("%-15s %10llu  combined: heap+stack %.1f%%, other %.1f%%, required %.1f%%\n",
              "ALL", static_cast<unsigned long long>(accesses),
              pct(all_sum.read_cap_heap + all_sum.read_cap_stack +
                      all_sum.write_cap_heap + all_sum.write_cap_stack,
                  accesses),
              pct(all_sum.read_not_required + all_sum.write_not_required, accesses),
              pct(all_sum.read_required + all_sum.write_required, accesses));
}

void fig9_removed(const Options& opt) {
  analysis_stats();
  std::printf("# Figure 9: portion of barriers removed by each technique (1 thread)\n");
  const std::vector<std::pair<std::string, TxConfig>> techniques = {
      {"tree", TxConfig::runtime_rw(AllocLogKind::kTree)},
      {"array", TxConfig::runtime_rw(AllocLogKind::kArray)},
      {"filtering", TxConfig::runtime_rw(AllocLogKind::kFilter)},
      {"compiler", TxConfig::compiler()},
  };
  std::printf("%-15s", "app");
  for (const auto& [name, cfg] : techniques) {
    std::printf(" %9s-R %9s-W", name.c_str(), name.c_str());
  }
  std::printf("\n");
  for (const auto& app : stamp::app_names()) {
    std::printf("%-15s", app.c_str());
    for (const auto& [name, cfg] : techniques) {
      const RunResult res = run_once(app, 1, cfg, opt);
      const TxStats& s = res.stats;
      std::printf(" %10.1f%% %10.1f%%", pct(s.read_elided(), s.reads),
                  pct(s.write_elided(), s.writes));
    }
    std::printf("\n");
  }
}

namespace {

/// Prints the app x config improvement table and, when opt.json is set,
/// writes the same data as machine-readable JSON (one object per app with
/// baseline seconds and per-config improvement percentages). The JSON is
/// the perf-trajectory record format consumed by scripts/bench_json.sh.
void speedup_table(const char* experiment, const Options& opt, int threads,
                   const std::vector<std::pair<std::string, TxConfig>>& configs) {
  std::FILE* json = nullptr;
  if (!opt.json.empty()) {
    json = std::fopen(opt.json.c_str(), "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", opt.json.c_str());
      std::exit(1);
    }
    std::fprintf(json,
                 "{\n  \"experiment\": \"%s\",\n  \"scale\": %g,\n"
                 "  \"threads\": %d,\n  \"reps\": %d,\n  \"seed\": %llu,\n"
                 "  \"rows\": [",
                 experiment, opt.scale, threads, opt.reps,
                 static_cast<unsigned long long>(opt.seed));
  }
  print_speedup_header();
  for (const auto& [name, cfg] : configs) std::printf(" %14s", name.c_str());
  std::printf("\n");
  bool first_row = true;
  for (const auto& app : stamp::app_names()) {
    const double base = median_seconds(app, threads, TxConfig::baseline(), opt);
    std::printf("%-15s", app.c_str());
    if (json != nullptr) {
      std::fprintf(json,
                   "%s\n    {\"app\": \"%s\", \"baseline_seconds\": %.6f, "
                   "\"improvement_percent\": {",
                   first_row ? "" : ",", app.c_str(), base);
      first_row = false;
    }
    bool first_cfg = true;
    for (const auto& [name, cfg] : configs) {
      const double t = median_seconds(app, threads, cfg, opt);
      const double improvement = (base / t - 1.0) * 100.0;
      std::printf(" %13.1f%%", improvement);
      if (json != nullptr) {
        std::fprintf(json, "%s\"%s\": %.2f", first_cfg ? "" : ", ",
                     name.c_str(), improvement);
        first_cfg = false;
      }
    }
    std::printf("  (baseline %.4fs)\n", base);
    if (json != nullptr) std::fprintf(json, "}}");
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("# wrote %s\n", opt.json.c_str());
  }
}

}  // namespace

void fig10_single_thread(const Options& opt) {
  analysis_stats();
  std::printf("# Figure 10: performance improvement over baseline at 1 thread\n");
  std::printf("# positive = faster than baseline, negative = runtime-check overhead\n");
  speedup_table("fig10", opt, 1,
                {{"rt-stack+heap-RW", TxConfig::runtime_rw()},
                 {"rt-stack+heap-W", TxConfig::runtime_w()},
                 {"rt-heap-W", TxConfig::runtime_heap_w(AllocLogKind::kTree)},
                 {"compiler", TxConfig::compiler()}});
}

void fig11a_configs(const Options& opt) {
  std::printf("# Figure 11(a): improvement over baseline at %d threads (runtime tree configs + compiler)\n",
              opt.threads);
  speedup_table("fig11a", opt, opt.threads,
                {{"rt-stack+heap-RW", TxConfig::runtime_rw()},
                 {"rt-stack+heap-W", TxConfig::runtime_w()},
                 {"rt-heap-W", TxConfig::runtime_heap_w(AllocLogKind::kTree)},
                 {"compiler", TxConfig::compiler()}});
}

void fig11a_scaling(const Options& opt) {
  // Thread-count sweep for the fig11 contenders: raw seconds (not
  // improvement) per app x config x thread count, so a multi-core box can
  // record BENCH_scaling.json and the gate can compare shapes, not just
  // endpoints. Thread counts above the machine's core count measure
  // oversubscribed scheduling, not parallel scaling.
  std::vector<int> counts;
  for (int t = 1; t <= opt.threads; t *= 2) counts.push_back(t);
  if (counts.empty() || counts.back() != opt.threads) {
    counts.push_back(opt.threads);
  }
  const std::vector<std::pair<std::string, TxConfig>> configs = {
      {"baseline", TxConfig::baseline()},
      {"rt-heap-W", TxConfig::runtime_heap_w(AllocLogKind::kTree)},
      {"compiler", TxConfig::compiler()},
  };
  std::printf("# Scaling sweep: median seconds per app/config across thread counts\n");
  std::printf("%-15s %-12s", "app", "config");
  for (int t : counts) std::printf(" %8dT", t);
  std::printf("\n");

  std::FILE* json = nullptr;
  if (!opt.json.empty()) {
    json = std::fopen(opt.json.c_str(), "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", opt.json.c_str());
      std::exit(1);
    }
    std::fprintf(json,
                 "{\n  \"experiment\": \"scaling\",\n  \"scale\": %g,\n"
                 "  \"reps\": %d,\n  \"seed\": %llu,\n  \"threads\": [",
                 opt.scale, opt.reps,
                 static_cast<unsigned long long>(opt.seed));
    for (std::size_t i = 0; i < counts.size(); ++i) {
      std::fprintf(json, "%s%d", i == 0 ? "" : ", ", counts[i]);
    }
    std::fprintf(json, "],\n  \"rows\": [");
  }
  bool first_row = true;
  for (const auto& app : stamp::app_names()) {
    for (const auto& [name, cfg] : configs) {
      std::printf("%-15s %-12s", app.c_str(), name.c_str());
      if (json != nullptr) {
        std::fprintf(json, "%s\n    {\"app\": \"%s\", \"config\": \"%s\", \"seconds\": [",
                     first_row ? "" : ",", app.c_str(), name.c_str());
        first_row = false;
      }
      bool first_t = true;
      for (int t : counts) {
        const double secs = median_seconds(app, t, cfg, opt);
        std::printf(" %8.4fs", secs);
        if (json != nullptr) {
          std::fprintf(json, "%s%.6f", first_t ? "" : ", ", secs);
          first_t = false;
        }
      }
      std::printf("\n");
      if (json != nullptr) std::fprintf(json, "]}");
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("# wrote %s\n", opt.json.c_str());
  }
}

void fig11b_structures(const Options& opt) {
  std::printf("# Figure 11(b): improvement over baseline at %d threads\n", opt.threads);
  std::printf("# runtime checks: write barriers only, transaction-local heap only\n");
  speedup_table("fig11b", opt, opt.threads,
                {{"tree", TxConfig::runtime_heap_w(AllocLogKind::kTree)},
                 {"array", TxConfig::runtime_heap_w(AllocLogKind::kArray)},
                 {"filter", TxConfig::runtime_heap_w(AllocLogKind::kFilter)},
                 {"compiler", TxConfig::compiler()}});
}

void table1_aborts(const Options& opt) {
  std::printf("# Table 1: abort-to-commit ratio at %d threads\n", opt.threads);
  std::printf("%-15s", "app");
  for (const auto& [name, cfg] : table_configs()) std::printf(" %10s", name.c_str());
  std::printf("\n");
  for (const auto& app : stamp::app_names()) {
    std::printf("%-15s", app.c_str());
    for (const auto& [name, cfg] : table_configs()) {
      const RunResult res = run_once(app, opt.threads, cfg, opt);
      std::printf(" %10.2f", res.stats.abort_to_commit_ratio());
    }
    std::printf("\n");
  }
}

void table2_variance(const Options& opt) {
  const int reps = opt.reps < 5 ? 5 : opt.reps;  // the paper uses 5 runs
  std::printf("# Table 2: percent relative standard deviation over %d runs at %d threads\n",
              reps, opt.threads);
  std::printf("%-15s", "app");
  for (const auto& [name, cfg] : table_configs()) std::printf(" %10s", name.c_str());
  std::printf("\n");
  for (const auto& app : stamp::app_names()) {
    std::printf("%-15s", app.c_str());
    for (const auto& [name, cfg] : table_configs()) {
      std::vector<double> times;
      for (int r = 0; r < reps; ++r) {
        times.push_back(run_once(app, opt.threads, cfg, opt).seconds);
      }
      const Summary s = summarize(times);
      std::printf(" %10.2f", s.rsd_percent);
    }
    std::printf("\n");
  }
}

namespace {

/// run_once's streaming twin: same config install / stats-reset protocol,
/// but the workload is replayed through txbatch::Batcher at @p batch.
RunResult run_stream_once(const std::string& app, int threads,
                          std::size_t batch, const TxConfig& cfg,
                          const Options& opt, std::uint64_t* requests_out) {
  set_global_config(cfg);
  auto instance = stamp::make_app(app);
  stamp::AppParams params;
  params.threads = threads;
  params.seed = opt.seed;
  params.scale = opt.scale;
  stats_reset();
  RunResult result;
  result.seconds = stamp::run_app_stream(*instance, params, batch, requests_out);
  result.stats = stats_snapshot();
  set_global_config(TxConfig::baseline());
  return result;
}

}  // namespace

void txbatch_stream(const Options& opt) {
  // The merge layer's one job: make a larger fraction of each transaction's
  // footprint CAPTURED. Run under the runtime stack+heap config with the
  // O(1)-miss filter log: most accesses in any real stream are capture
  // MISSES, and a log whose miss cost grows with the merged footprint (the
  // tree) would charge the batch for its own size, burying the fixed-cost
  // amortization this experiment exists to show. (The bounded array log is
  // out too — it overflows outright at batch 64.) --capture-log overrides.
  AllocLogKind log_kind = AllocLogKind::kFilter;
  if (!opt.capture_log.empty()) {
    alloc_log_from_name(opt.capture_log, &log_kind);  // validated at parse
  }
  const TxConfig cfg = TxConfig::runtime_rw(log_kind);
  std::vector<std::size_t> batches;
  if (opt.batch > 0) {
    batches.push_back(opt.batch);
  } else {
    batches = {1, 4, 16, 64};
  }
  const std::vector<std::string> apps = {"vacation-low", "intruder"};

  std::printf("# txbatch: request-stream throughput vs merge factor "
              "(%d thread%s, runtime stack+heap RW, %s log)\n",
              opt.threads, opt.threads == 1 ? "" : "s", to_string(log_kind));
  std::printf("# capture-hit%% = accesses hitting captured (tx-local "
              "stack/heap) memory; elided%% = any elision mechanism; "
              "ovf%% = allocations dropped by a full array log\n");
  std::printf("%-15s %6s %10s %12s %12s %9s %10s %6s %8s %9s %7s\n", "app",
              "batch", "seconds", "requests", "req/s", "cap-hit%", "elided%",
              "ovf%", "commits", "flushes", "comp");

  std::FILE* json = nullptr;
  if (!opt.json.empty()) {
    json = std::fopen(opt.json.c_str(), "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", opt.json.c_str());
      std::exit(1);
    }
    std::fprintf(json,
                 "{\n  \"experiment\": \"txbatch\",\n  \"scale\": %g,\n"
                 "  \"threads\": %d,\n  \"reps\": %d,\n  \"seed\": %llu,\n"
                 "  \"batch_sizes\": [",
                 opt.scale, opt.threads, opt.reps,
                 static_cast<unsigned long long>(opt.seed));
    for (std::size_t i = 0; i < batches.size(); ++i) {
      std::fprintf(json, "%s%zu", i == 0 ? "" : ", ", batches[i]);
    }
    std::fprintf(json, "],\n  \"rows\": [");
  }
  bool first_row = true;
  for (const auto& app : apps) {
    for (const std::size_t batch : batches) {
      std::vector<double> times;
      TxStats stats;
      std::uint64_t requests = 0;
      for (int r = 0; r < opt.reps; ++r) {
        const RunResult res =
            run_stream_once(app, opt.threads, batch, cfg, opt, &requests);
        times.push_back(res.seconds);
        stats = res.stats;
      }
      std::sort(times.begin(), times.end());
      const double secs = times[times.size() / 2];
      const double rps = secs > 0.0 ? static_cast<double>(requests) / secs : 0.0;
      std::printf("%-15s %6zu %10.4f %12llu %12.0f %9.1f %10.1f %6.1f %8llu %9llu %7llu\n",
                  app.c_str(), batch, secs,
                  static_cast<unsigned long long>(requests), rps,
                  stats.capture_hit_percent(), stats.elided_percent(),
                  stats.capture_overflow_percent(),
                  static_cast<unsigned long long>(stats.commits),
                  static_cast<unsigned long long>(stats.batch_flushes),
                  static_cast<unsigned long long>(stats.batch_op_compensations));
      if (json != nullptr) {
        std::fprintf(
            json,
            "%s\n    {\"app\": \"%s\", \"batch\": %zu, \"seconds\": %.6f, "
            "\"requests\": %llu, \"req_per_sec\": %.1f, "
            "\"capture_hit_percent\": %.2f, \"elided_percent\": %.2f, "
            "\"commits\": %llu, \"aborts\": %llu, \"batch_flushes\": %llu, "
            "\"batch_ops\": %llu, \"batch_op_compensations\": %llu}",
            first_row ? "" : ",", app.c_str(), batch, secs,
            static_cast<unsigned long long>(requests), rps,
            stats.capture_hit_percent(), stats.elided_percent(),
            static_cast<unsigned long long>(stats.commits),
            static_cast<unsigned long long>(stats.aborts),
            static_cast<unsigned long long>(stats.batch_flushes),
            static_cast<unsigned long long>(stats.batch_ops),
            static_cast<unsigned long long>(stats.batch_op_compensations));
        first_row = false;
      }
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("# wrote %s\n", opt.json.c_str());
  }
}

void durable_sweep(const Options& opt) {
  // Durability cost and what capture elision buys back. Three cells per
  // app: the non-durable reference (runtime stack+heap RW, filter log —
  // the txbatch_stream config), the same config made durable, and durable
  // with capture disabled (every instrumented store redo-logged and
  // flushed). A scratch heap file backs the log so commits pay real
  // serialization + write-back; STAMP's data stays volatile, so entries
  // are flush-accounted but never replayed.
  const TxConfig ref = TxConfig::runtime_rw(AllocLogKind::kFilter);
  const TxConfig dur_cap = ref.with_durable();
  const TxConfig dur_nocap = TxConfig::durable_baseline();

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string heap_path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                                "/cstm_bench_durable_" +
                                std::to_string(::getpid()) + ".heap";
  std::remove(heap_path.c_str());
  dur::DurableHeap heap;
  if (!heap.open(heap_path)) {
    std::fprintf(stderr, "cannot open scratch durable heap %s\n",
                 heap_path.c_str());
    std::exit(1);
  }
  heap.activate();

  std::printf("# Durable mode: overhead vs non-durable and flush elision "
              "(%d thread%s, runtime stack+heap RW, filter log)\n",
              opt.threads, opt.threads == 1 ? "" : "s");
  std::printf("# flush-elided%% = captured stores that skipped redo "
              "logging+flushing; nocap = durable with capture disabled\n");
  std::printf("%-15s %10s %10s %8s %10s %8s %9s %10s %10s %10s\n", "app",
              "ref-s", "dur-s", "ovh%", "nocap-s", "ovh%", "elided%", "pwbs",
              "nocap-pwb", "logged");

  std::FILE* json = nullptr;
  if (!opt.json.empty()) {
    json = std::fopen(opt.json.c_str(), "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", opt.json.c_str());
      std::exit(1);
    }
    std::fprintf(json,
                 "{\n  \"experiment\": \"durable\",\n  \"scale\": %g,\n"
                 "  \"threads\": %d,\n  \"reps\": %d,\n  \"seed\": %llu,\n"
                 "  \"rows\": [",
                 opt.scale, opt.threads, opt.reps,
                 static_cast<unsigned long long>(opt.seed));
  }
  bool first_row = true;
  for (const auto& app : stamp::app_names()) {
    const double base = median_seconds(app, opt.threads, ref, opt);
    TxStats cap_stats;
    const double t_cap = median_seconds(app, opt.threads, dur_cap, opt,
                                        &cap_stats);
    TxStats nocap_stats;
    const double t_nocap = median_seconds(app, opt.threads, dur_nocap, opt,
                                          &nocap_stats);
    const double ovh_cap = (t_cap / base - 1.0) * 100.0;
    const double ovh_nocap = (t_nocap / base - 1.0) * 100.0;
    std::printf(
        "%-15s %10.4f %10.4f %7.1f%% %10.4f %7.1f%% %8.1f%% %10llu %10llu "
        "%10llu\n",
        app.c_str(), base, t_cap, ovh_cap, t_nocap, ovh_nocap,
        cap_stats.flushes_elided_percent(),
        static_cast<unsigned long long>(cap_stats.durable_pwbs),
        static_cast<unsigned long long>(nocap_stats.durable_pwbs),
        static_cast<unsigned long long>(cap_stats.durable_stores_logged));
    if (json != nullptr) {
      std::fprintf(
          json,
          "%s\n    {\"app\": \"%s\", \"nondurable_seconds\": %.6f, "
          "\"durable_seconds\": %.6f, \"durable_overhead_percent\": %.2f, "
          "\"durable_nocapture_seconds\": %.6f, "
          "\"durable_nocapture_overhead_percent\": %.2f, "
          "\"flushes_elided_percent\": %.2f, \"pwbs\": %llu, "
          "\"pwbs_nocapture\": %llu, \"stores_logged\": %llu, "
          "\"stores_logged_nocapture\": %llu, \"durable_commits\": %llu}",
          first_row ? "" : ",", app.c_str(), base, t_cap, ovh_cap, t_nocap,
          ovh_nocap, cap_stats.flushes_elided_percent(),
          static_cast<unsigned long long>(cap_stats.durable_pwbs),
          static_cast<unsigned long long>(nocap_stats.durable_pwbs),
          static_cast<unsigned long long>(cap_stats.durable_stores_logged),
          static_cast<unsigned long long>(nocap_stats.durable_stores_logged),
          static_cast<unsigned long long>(cap_stats.durable_commits));
      first_row = false;
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("# wrote %s\n", opt.json.c_str());
  }
  heap.deactivate();
  heap.close();
  std::remove(heap_path.c_str());
}

}  // namespace cstm::harness
