// The benchmark's workloads and the measurement of one pass of each.
//
// A pass is one complete, closed-loop execution of a workload: for the
// STAMP workloads every app of the list is set up, run by all threads and
// verified, one app after another; for the stream, vacation-low's request
// stream is replayed through one txbatch::Batcher per thread against an
// active DurableHeap. Everything is driven from outside the library,
// through its public calls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stm/stm.hpp"
#include "trace.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  int threads;
  cstm::TxConfig config;
  std::vector<const char*> apps;  // STAMP apps, in pass order
  bool stream;                    // txbatch + durable request stream
  double scale;                   // AppParams::scale
};

/// The three workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// The exact work an app did in one pass: the equal-work fingerprint.
struct Work {
  std::uint64_t commits = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t elided_stack = 0;
  std::uint64_t elided_heap = 0;
  std::uint64_t elided_private = 0;
  std::uint64_t elided_static = 0;
  std::uint64_t tx_allocs = 0;
};
Work work_of(const cstm::TxStats& s);

struct AppRun {
  const char* app = "";
  double setup_s = 0;
  double run_s = 0;         // release to the last worker() return
  double slowest_s = 0;     // slowest per-thread worker() span
  double fastest_s = 0;     // fastest per-thread worker() span
  bool verified = false;
  cstm::TxStats stats;      // snapshot after the workers joined
};

/// Stream-only figures of one pass.
struct StreamRun {
  std::uint64_t generated = 0;  // requests the sources yielded
  std::uint64_t committed = 0;  // Completions seen kCommitted
  std::uint64_t failed = 0;     // Completions seen kFailed
  std::uint64_t undecided = 0;  // Completions still kPending after drain
  cstm::txbatch::BatcherStats batcher;  // summed over threads
  double open_s = 0;            // DurableHeap::open
  double requestgen_s = 0;      // thread-seconds inside RequestSource::next
  std::vector<double> latency_us;     // per request: enqueue to decided
  std::vector<double> flush_us;       // flushing enqueues and drains
  std::vector<double> queue_wait_us;  // enqueue to start of its flush
};

struct PassResult {
  bool ok = true;  // every verify() passed and the stream accounting held
  std::vector<std::string> errors;
  double setup_s = 0;  // app setups, plus DurableHeap::open on the stream
  double run_s = 0;    // sum of the timed regions
  std::vector<AppRun> apps;
  StreamRun stream;
  cstm::TxStats stats;  // summed over the pass's apps
};

struct PassOptions {
  std::uint64_t seed = 1;
  std::string work_dir;    // where the stream's heap file lives
  Tracer* tracer = nullptr;   // null = untraced pass
  std::uint64_t parent = 0;   // parent span id
};

/// Runs one pass of @p w. The global TxConfig must already be w.config.
PassResult run_pass(const Workload& w, const PassOptions& opt);

}  // namespace perfbench
