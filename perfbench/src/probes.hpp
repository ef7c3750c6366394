// Layer probes: nanoseconds per access (or per transaction) for each
// barrier path, timed through public calls inside one cstm::atomic.
//
// Every probe varies the address on each access across a buffer, folds
// every loaded value into a sink that is checked after the loop, and then
// asserts on the stats_snapshot() deltas that the accesses took the path
// the probe is named after. A probe whose assertion fails reports no
// number.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct ProbeResult {
  const char* metric;  // per-layer metric name, e.g. "capture.read_heap_hit_ns"
  const char* preset;  // TxConfig preset it ran under
  double ns = 0;       // median over repetitions
  bool passed = false;
  std::string failure;  // why the path assertion failed
};

/// Runs every probe on the calling thread, each under the preset of the
/// workload that owns it. Leaves the global TxConfig changed; the caller
/// restores it. @p work_dir holds the durable probe's heap file.
std::vector<ProbeResult> run_probes(const std::string& work_dir,
                                    std::uint64_t seed, Tracer* tracer,
                                    std::uint64_t parent);

}  // namespace perfbench
