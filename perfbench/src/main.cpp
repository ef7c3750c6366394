// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//
// Runs passes of one workload (workloads.hpp) until --seconds have gone by,
// checks every pass (verify(), the stream's completion accounting, equal
// work across passes), prints every metric by name with its unit, and ends
// with one JSON line: {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced passes, reports the per-layer metrics from the traced ones
// (plus the tracing overhead against the untraced ones), runs the layer
// probes, and writes the spans to <workdir>/trace-<workload>.json.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "probes.hpp"
#include "stamp/app.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::PassResult;
using perfbench::Workload;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/run";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>]\nworkloads:",
               why);
  for (const Workload& w : perfbench::workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--workdir") a.workdir = v;
      else usage(("unknown flag " + k).c_str());
    } catch (const std::exception&) {
      usage(("bad value for " + k + ": " + v).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// The median over @p passes of @p f.
double med(const std::vector<const PassResult*>& passes,
           const std::function<double(const PassResult&)>& f) {
  std::vector<double> v;
  for (const PassResult* p : passes) v.push_back(f(*p));
  return median(v);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Per-pass latency of one unit of client work: a request on the stream,
/// a whole app job (release to last worker() return) on STAMP workloads.
std::vector<double> unit_latencies_us(const PassResult& p) {
  if (!p.stream.latency_us.empty()) return p.stream.latency_us;
  std::vector<double> v;
  for (const perfbench::AppRun& a : p.apps) v.push_back(a.run_s * 1e6);
  return v;
}

std::vector<Metric> end_to_end(const std::vector<const PassResult*>& passes,
                               double rss_mb) {
  return {
      {"run_s", med(passes, [](const PassResult& p) { return p.run_s; }), "s"},
      {"req_p50_us",
       med(passes, [](const PassResult& p) { return percentile(unit_latencies_us(p), 0.50); }),
       "us"},
      {"req_p99_us",
       med(passes, [](const PassResult& p) { return percentile(unit_latencies_us(p), 0.99); }),
       "us"},
      {"setup_s", med(passes, [](const PassResult& p) { return p.setup_s; }), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

std::vector<Metric> per_layer(const std::vector<const PassResult*>& traced,
                              const std::vector<const PassResult*>& untraced,
                              const std::vector<perfbench::ProbeResult>& probes,
                              double drift_pct) {
  std::vector<Metric> m;
  auto add = [&](const std::string& name, const char* unit,
                 const std::function<double(const PassResult&)>& f) {
    m.push_back({name, med(traced, f), unit});
  };
  auto stat = [&](const std::string& name, const char* unit,
                  const std::function<double(const cstm::TxStats&)>& f) {
    add(name, unit, [f](const PassResult& p) { return f(p.stats); });
  };
  using S = cstm::TxStats;
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  // stamp
  for (const std::string& app : cstm::stamp::app_names()) {
    add("stamp." + app + ".run_s", "s", [app](const PassResult& p) {
      for (const perfbench::AppRun& a : p.apps) {
        if (app == a.app) return a.run_s;
      }
      return 0.0;  // not part of this workload
    });
  }
  add("stamp.worker_skew", "ratio", [](const PassResult& p) {
    double slow = 0, fast = 0;
    for (const perfbench::AppRun& a : p.apps) {
      slow += a.slowest_s;
      fast += a.fastest_s;
    }
    return ratio(slow, fast);
  });
  add("stamp.setup_s", "s", [](const PassResult& p) {
    double s = 0;
    for (const perfbench::AppRun& a : p.apps) s += a.setup_s;
    return s;
  });
  add("stamp.requestgen_s", "s",
      [](const PassResult& p) { return p.stream.requestgen_s; });

  // stm
  stat("stm.commits", "count", [d](const S& s) { return d(s.commits); });
  stat("stm.aborts", "count", [d](const S& s) { return d(s.aborts); });
  stat("stm.useful_ratio", "ratio",
       [d](const S& s) { return ratio(d(s.commits), d(s.commits + s.aborts)); });
  stat("stm.reads", "count", [d](const S& s) { return d(s.reads); });
  stat("stm.writes", "count", [d](const S& s) { return d(s.writes); });
  stat("stm.write_own_fast", "count", [d](const S& s) { return d(s.write_own_fast); });
  stat("stm.lazy_revalidations", "count",
       [d](const S& s) { return d(s.lazy_revalidations); });
  stat("stm.clock_reservations", "count",
       [d](const S& s) { return d(s.clock_reservations); });
  stat("stm.clock_stale_discards", "count",
       [d](const S& s) { return d(s.clock_stale_discards); });
  stat("stm.cm_aborts_backoff", "count",
       [d](const S& s) { return d(s.cm_aborts_backoff); });
  stat("stm.nested_partial_aborts", "count",
       [d](const S& s) { return d(s.nested_partial_aborts); });

  // capture
  stat("capture.read_elided_stack", "count",
       [d](const S& s) { return d(s.read_elided_stack); });
  stat("capture.read_elided_heap", "count",
       [d](const S& s) { return d(s.read_elided_heap); });
  stat("capture.write_elided_stack", "count",
       [d](const S& s) { return d(s.write_elided_stack); });
  stat("capture.write_elided_heap", "count",
       [d](const S& s) { return d(s.write_elided_heap); });
  stat("capture.elided_private", "count", [d](const S& s) {
    return d(s.read_elided_private + s.write_elided_private);
  });
  stat("capture.hit_pct", "%", [](const S& s) { return s.capture_hit_percent(); });

  // txir: the generated Site verdicts, honoured under TxConfig::compiler()
  stat("txir.read_elided_static", "count",
       [d](const S& s) { return d(s.read_elided_static); });
  stat("txir.write_elided_static", "count",
       [d](const S& s) { return d(s.write_elided_static); });

  // txmalloc
  stat("txmalloc.allocs", "count", [d](const S& s) { return d(s.tx_allocs); });
  stat("txmalloc.frees", "count", [d](const S& s) { return d(s.tx_frees); });

  // txbatch
  add("txbatch.batches", "count",
      [d](const PassResult& p) { return d(p.stream.batcher.batches); });
  add("txbatch.ops_per_batch", "ratio", [d](const PassResult& p) {
    return ratio(d(p.stream.batcher.ops_committed), d(p.stream.batcher.batches));
  });
  add("txbatch.ops_requeued", "count",
      [d](const PassResult& p) { return d(p.stream.batcher.ops_requeued); });
  add("txbatch.ops_failed", "count",
      [d](const PassResult& p) { return d(p.stream.batcher.ops_failed); });
  stat("txbatch.compensations", "count",
       [d](const S& s) { return d(s.batch_op_compensations); });
  add("txbatch.flush_us_p50", "us",
      [](const PassResult& p) { return percentile(p.stream.flush_us, 0.50); });
  add("txbatch.flush_us_p99", "us",
      [](const PassResult& p) { return percentile(p.stream.flush_us, 0.99); });
  add("txbatch.queue_wait_us_p50", "us",
      [](const PassResult& p) { return percentile(p.stream.queue_wait_us, 0.50); });

  // durable
  stat("durable.commits", "count", [d](const S& s) { return d(s.durable_commits); });
  stat("durable.stores_logged", "count",
       [d](const S& s) { return d(s.durable_stores_logged); });
  stat("durable.pwbs", "count", [d](const S& s) { return d(s.durable_pwbs); });
  stat("durable.pfences", "count", [d](const S& s) { return d(s.durable_pfences); });
  stat("durable.log_bytes", "bytes", [d](const S& s) { return d(s.durable_log_bytes); });
  stat("durable.captured_writebacks", "count",
       [d](const S& s) { return d(s.durable_captured_writebacks); });
  stat("durable.flushes_elided_pct", "%", [](const S& s) {
    return s.durable_commits == 0 ? 0.0 : s.flushes_elided_percent();
  });
  add("durable.open_s", "s", [](const PassResult& p) { return p.stream.open_s; });

  // layer probes; a probe that failed its path assertion reports no number
  for (const perfbench::ProbeResult& p : probes) {
    if (p.passed) m.push_back({p.metric, p.ns, "ns"});
  }

  // tracing overhead: traced against untraced passes of this same run
  const auto run_s = [](const PassResult& p) { return p.run_s; };
  m.push_back({"trace.overhead_pct",
               100.0 * (ratio(med(traced, run_s), med(untraced, run_s)) - 1.0), "%"});
  m.push_back({"work.drift_pct", drift_pct, "%"});
  return m;
}

struct Drift {
  std::vector<std::string> lines;  // one per drifting app and pass
  double max_pct = 0;              // largest deviation from pass 0, in %
};

/// Equal-work check: the counts that must repeat exactly from pass to pass
/// for a given seed, compared against pass 0. On one thread nothing
/// conflicts, so every count of the fingerprint is a function of the seed.
/// With more threads only the committed-transaction count is fixed by the
/// input (labyrinth and yada retry work whose amount depends on the
/// interleaving, so they are exempt); on the stream, the request count.
Drift drift(const Workload& w, const std::vector<PassResult>& passes) {
  using F = std::uint64_t perfbench::Work::*;
  static const std::vector<std::pair<const char*, F>> all = {
      {"commits", &perfbench::Work::commits},
      {"reads", &perfbench::Work::reads},
      {"writes", &perfbench::Work::writes},
      {"elided_stack", &perfbench::Work::elided_stack},
      {"elided_heap", &perfbench::Work::elided_heap},
      {"elided_private", &perfbench::Work::elided_private},
      {"elided_static", &perfbench::Work::elided_static},
      {"tx_allocs", &perfbench::Work::tx_allocs},
  };
  const std::vector<std::pair<const char*, F>> commits_only(all.begin(), all.begin() + 1);
  Drift out;
  auto compare = [&](const std::string& what, std::uint64_t got,
                     std::uint64_t want, std::string& line) {
    if (got == want) return;
    line += " " + what + " " + std::to_string(got) + " (pass 0: " + std::to_string(want) + ")";
    const double pct = 100.0 * std::abs(static_cast<double>(got) - static_cast<double>(want)) /
                       std::max(1.0, static_cast<double>(want));
    out.max_pct = std::max(out.max_pct, pct);
  };
  for (std::size_t i = 1; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    const PassResult& ref = passes.front();
    if (w.stream) {
      std::string line;
      compare("requests", p.stream.generated, ref.stream.generated, line);
      if (!line.empty()) out.lines.push_back("pass " + std::to_string(i) + ":" + line);
      continue;
    }
    for (std::size_t a = 0; a < p.apps.size() && a < ref.apps.size(); ++a) {
      const std::string app = p.apps[a].app;
      if (w.threads > 1 && (app == "labyrinth" || app == "yada")) continue;
      const perfbench::Work got = perfbench::work_of(p.apps[a].stats);
      const perfbench::Work want = perfbench::work_of(ref.apps[a].stats);
      std::string line;
      for (const auto& [name, field] : w.threads == 1 ? all : commits_only) {
        compare(name, got.*field, want.*field, line);
      }
      if (!line.empty()) out.lines.push_back("pass " + std::to_string(i) + ": " + app + line);
    }
  }
  return out;
}

void print_work(const std::vector<PassResult>& passes) {
  if (passes.empty()) return;
  for (const perfbench::AppRun& a : passes.front().apps) {
    const perfbench::Work k = perfbench::work_of(a.stats);
    std::printf(
        "# work %-13s commits=%llu reads=%llu writes=%llu elided_stack=%llu "
        "elided_heap=%llu elided_private=%llu elided_static=%llu tx_allocs=%llu\n",
        a.app, static_cast<unsigned long long>(k.commits),
        static_cast<unsigned long long>(k.reads),
        static_cast<unsigned long long>(k.writes),
        static_cast<unsigned long long>(k.elided_stack),
        static_cast<unsigned long long>(k.elided_heap),
        static_cast<unsigned long long>(k.elided_private),
        static_cast<unsigned long long>(k.elided_static),
        static_cast<unsigned long long>(k.tx_allocs));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload* w = perfbench::find_workload(args.workload);
  if (w == nullptr) usage(("unknown workload " + args.workload).c_str());
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", args.workdir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  perfbench::Tracer tracer;
  perfbench::Tracer* tr = args.trace ? &tracer : nullptr;
  std::optional<perfbench::ScopedSpan> run_span;
  run_span.emplace(tr, args.trace ? &tracer.lane(0) : nullptr, "bench", "run", 0,
                   w->name);

  // Closed loop: passes back to back until the time is up. A traced run
  // alternates untraced and traced passes so the overhead is measured
  // against interleaved untraced passes of the same process.
  cstm::set_global_config(w->config);
  std::vector<PassResult> passes;
  std::vector<bool> traced;
  const std::int64_t t0 = perfbench::now_ns();
  const std::size_t min_passes = args.trace ? 2 : 3;
  double first_pass_rss_mb = 0;
  for (;;) {
    const bool trace_this = args.trace && passes.size() % 2 == 1;
    perfbench::PassOptions opt;
    opt.seed = args.seed;
    opt.work_dir = args.workdir;
    opt.tracer = trace_this ? tr : nullptr;
    opt.parent = trace_this ? run_span->id() : 0;
    passes.push_back(perfbench::run_pass(*w, opt));
    traced.push_back(trace_this);
    // The footprint of one execution: later passes add the library's
    // retained memory, and their number depends on the program's speed.
    if (passes.size() == 1) first_pass_rss_mb = peak_rss_mb();
    const double elapsed = static_cast<double>(perfbench::now_ns() - t0) / 1e9;
    if (passes.size() >= min_passes && elapsed >= args.seconds) break;
  }
  const double measured_s = static_cast<double>(perfbench::now_ns() - t0) / 1e9;

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    // Operations: requests on the stream, committed transactions on STAMP.
    const std::uint64_t ops = w->stream ? p.stream.generated : p.stats.commits;
    attempted += ops;
    failed += p.ok ? p.stream.failed : ops;
    if (!p.ok) correct = false;
    for (const std::string& e : p.errors) {
      std::fprintf(stderr, "perfbench: pass %zu: %s\n", i, e.c_str());
    }
  }
  // Drift is reported as drift, beside the timings; it is not an output
  // error (verify() and the completion accounting judge outputs).
  const Drift work_drift = drift(*w, passes);
  if (attempted == 0) attempted = 1;

  std::printf("# workload %s seed %llu threads %d scale %g passes %zu measured %.3f s\n",
              w->name, static_cast<unsigned long long>(args.seed), w->threads,
              w->scale, passes.size(), measured_s);
  for (std::size_t i = 0; i < passes.size(); ++i) {
    std::string apps;
    for (const perfbench::AppRun& a : passes[i].apps) {
      apps += std::string(" ") + a.app + "=" + number(a.run_s);
    }
    std::printf("# pass %zu%s run_s %s setup_s %s aborts %llu:%s\n", i,
                traced[i] ? " (traced)" : "", number(passes[i].run_s).c_str(),
                number(passes[i].setup_s).c_str(),
                static_cast<unsigned long long>(passes[i].stats.aborts), apps.c_str());
  }
  print_work(passes);
  for (const std::string& line : work_drift.lines) {
    std::printf("# workload drift: %s\n", line.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<const PassResult*> all;
    for (const PassResult& p : passes) all.push_back(&p);
    metrics = end_to_end(all, first_pass_rss_mb);
    std::printf("# peak_rss_mb: %s after pass 0, %s after the last pass\n",
                number(first_pass_rss_mb).c_str(), number(peak_rss_mb()).c_str());
    const std::size_t samples = w->stream ? passes.front().stream.latency_us.size()
                                          : passes.front().apps.size();
    std::printf("# req_*: %s, %zu samples per pass; median over %zu passes\n",
                w->stream ? "enqueue to decided Completion" : "app job, release to last worker()",
                samples, passes.size());
    std::printf("# failed_frac %s (failed %llu of %llu operations)\n",
                number(static_cast<double>(failed) / static_cast<double>(attempted)).c_str(),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  } else {
    std::vector<const PassResult*> on;
    std::vector<const PassResult*> off;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      (traced[i] ? on : off).push_back(&passes[i]);
    }
    const std::vector<perfbench::ProbeResult> probes =
        perfbench::run_probes(args.workdir, args.seed, tr, run_span->id());
    cstm::set_global_config(w->config);
    for (const perfbench::ProbeResult& p : probes) {
      if (!p.passed) {
        std::fprintf(stderr, "perfbench: probe %s (%s) failed its path assertion: %s\n",
                     p.metric, p.preset, p.failure.c_str());
      }
    }
    metrics = per_layer(on, off, probes, work_drift.max_pct);
  }

  for (const Metric& m : metrics) {
    std::printf("%-28s %20s %s\n", m.name.c_str(), number(m.value).c_str(), m.unit);
  }
  if (args.trace) {
    const std::string path = args.workdir + "/trace-" + w->name + ".json";
    run_span.reset();  // close the root span before writing
    if (tracer.write_chrome_json(path, w->name, args.seed)) {
      std::printf("# trace: %llu spans (%llu dropped) -> %s\n",
                  static_cast<unsigned long long>(tracer.spans()),
                  static_cast<unsigned long long>(tracer.dropped()), path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
