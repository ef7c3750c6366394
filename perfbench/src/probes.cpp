#include "probes.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>

#include "durable/durable_heap.hpp"
#include "stm/stm.hpp"

namespace perfbench {

namespace {

using cstm::Tx;
using cstm::TxConfig;
using cstm::TxStats;

// Buffer of kWords words walked with an odd stride: every repetition
// touches each word exactly once, in an order the compiler cannot predict
// (the stride is read through a volatile).
constexpr std::size_t kWords = 4096;
constexpr std::size_t kStackWords = 512;
constexpr std::size_t kHeapBlocks = 8;
constexpr std::size_t kBlockWords = kWords / kHeapBlocks;
constexpr int kReps = 64;
constexpr int kTxPerRep = 256;
constexpr int kDurableTxPerRep = 64;
constexpr std::size_t kAllocsPerRep = 1024;
volatile std::size_t g_stride = 1031;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Keeps @p p's pointee observable: the compiler must assume the asm
/// reads and writes it.
inline void escape(const void* p) { asm volatile("" : : "r"(p) : "memory"); }

struct Probe {
  ProbeResult result;
  std::vector<double> per_rep_ns;  // ns per access, one value per repetition

  void fail(const std::string& why) {
    if (result.passed) result.failure = why;
    result.passed = false;
  }
  void expect(bool ok, const char* what, std::uint64_t got,
              std::uint64_t want) {
    if (!ok) {
      fail(std::string(what) + " = " + std::to_string(got) + ", expected " +
           std::to_string(want));
    }
  }
};

Probe start(const char* metric, const char* preset, const TxConfig& cfg) {
  cstm::set_global_config(cfg);
  Probe p;
  p.result.metric = metric;
  p.result.preset = preset;
  p.result.passed = true;
  cstm::stats_reset();
  return p;
}

/// Checks the assertions shared by every probe and fills in the median.
ProbeResult finish(Probe& p, const TxStats& s, std::uint64_t want_commits) {
  p.expect(s.aborts == 0, "aborts", s.aborts, 0);
  p.expect(s.commits == want_commits, "commits", s.commits, want_commits);
  if (p.result.passed) p.result.ns = median(p.per_rep_ns);
  return p.result;
}

std::vector<std::uint64_t> filled(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = seed * 0x9e3779b97f4a7c15ull + i;
  return v;
}

std::uint64_t sum(const std::uint64_t* p, std::size_t n) {
  std::uint64_t s = 0;
  for (std::size_t i = 0; i < n; ++i) s += p[i];
  return s;
}

// -- stm (stamp-contended-4t's preset: compiler) ---------------------------

ProbeResult read_full(std::uint64_t seed) {
  Probe p = start("stm.read_full_ns", "compiler", TxConfig::compiler());
  const std::vector<std::uint64_t> buf = filled(kWords, seed);
  const std::size_t stride = g_stride;
  std::uint64_t sink = 0;
  for (int r = 0; r < kReps; ++r) {
    std::int64_t ns = 0;
    std::uint64_t got = 0;
    cstm::atomic([&](Tx& tx) {
      const std::int64_t t0 = now_ns();
      std::uint64_t s = 0;
      for (std::size_t i = 0; i < kWords; ++i) {
        s += cstm::tm_read(tx, &buf[(i * stride) & (kWords - 1)]);
      }
      ns = now_ns() - t0;
      got = s;
    });
    p.per_rep_ns.push_back(static_cast<double>(ns) / kWords);
    sink += got;
  }
  const TxStats s = cstm::stats_snapshot();
  const std::uint64_t n = std::uint64_t{kWords} * kReps;
  p.expect(sink == sum(buf.data(), kWords) * kReps, "sink", sink,
           sum(buf.data(), kWords) * kReps);
  p.expect(s.reads == n, "reads", s.reads, n);
  p.expect(s.read_elided() == 0, "read elisions", s.read_elided(), 0);
  return finish(p, s, kReps);
}

ProbeResult write_full(std::uint64_t seed) {
  Probe p = start("stm.write_full_ns", "compiler", TxConfig::compiler());
  std::vector<std::uint64_t> buf(kWords, 0);
  const std::size_t stride = g_stride;
  for (int r = 0; r < kReps; ++r) {
    std::int64_t ns = 0;
    const std::uint64_t base = seed + static_cast<std::uint64_t>(r);
    cstm::atomic([&](Tx& tx) {
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < kWords; ++i) {
        const std::size_t k = (i * stride) & (kWords - 1);
        cstm::tm_write(tx, &buf[k], base + k);
      }
      ns = now_ns() - t0;
    });
    p.per_rep_ns.push_back(static_cast<double>(ns) / kWords);
  }
  const TxStats s = cstm::stats_snapshot();
  const std::uint64_t n = std::uint64_t{kWords} * kReps;
  const std::uint64_t last = seed + kReps - 1;
  for (std::size_t k = 0; k < kWords; ++k) {
    if (buf[k] != last + k) {
      p.fail("buffer word " + std::to_string(k) + " holds a stale value");
      break;
    }
  }
  p.expect(s.writes == n, "writes", s.writes, n);
  p.expect(s.write_elided() == 0, "write elisions", s.write_elided(), 0);
  return finish(p, s, kReps);
}

ProbeResult tx_empty() {
  Probe p = start("stm.tx_empty_ns", "compiler", TxConfig::compiler());
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kTxPerRep; ++i) cstm::atomic([](Tx&) {});
    p.per_rep_ns.push_back(static_cast<double>(now_ns() - t0) / kTxPerRep);
  }
  const TxStats s = cstm::stats_snapshot();
  p.expect(s.reads + s.writes == 0, "accesses", s.reads + s.writes, 0);
  return finish(p, s, std::uint64_t{kReps} * kTxPerRep);
}

// -- capture / txmalloc (stamp-capture-1t's preset: runtime_rw) -------------

ProbeResult read_stack_hit(std::uint64_t seed) {
  Probe p = start("capture.read_stack_hit_ns", "runtime_rw", TxConfig::runtime_rw());
  const std::size_t stride = g_stride;
  std::uint64_t sink = 0;
  std::uint64_t want = 0;
  for (int r = 0; r < kReps; ++r) {
    std::int64_t ns = 0;
    std::uint64_t got = 0;
    std::uint64_t filled_sum = 0;
    cstm::atomic([&](Tx& tx) {
      std::uint64_t local[kStackWords];
      for (std::size_t i = 0; i < kStackWords; ++i) local[i] = seed + i * 3;
      escape(local);
      filled_sum = sum(local, kStackWords);
      const std::int64_t t0 = now_ns();
      std::uint64_t s = 0;
      for (std::size_t i = 0; i < kWords; ++i) {
        s += cstm::tm_read(tx, &local[(i * stride) & (kStackWords - 1)],
                           cstm::kAutoSite);
      }
      ns = now_ns() - t0;
      got = s;
    });
    p.per_rep_ns.push_back(static_cast<double>(ns) / kWords);
    sink += got;
    want += filled_sum * (kWords / kStackWords);
  }
  const TxStats s = cstm::stats_snapshot();
  const std::uint64_t n = std::uint64_t{kWords} * kReps;
  p.expect(sink == want, "sink", sink, want);
  p.expect(s.read_elided_stack == n, "read_elided_stack", s.read_elided_stack, n);
  return finish(p, s, kReps);
}

/// Allocates kHeapBlocks captured blocks inside @p tx, filled with plain
/// stores (the memory is captured, so no barrier is needed to initialize it).
void alloc_blocks(Tx& tx, std::uint64_t* (&blocks)[kHeapBlocks],
                  std::uint64_t seed) {
  for (std::size_t b = 0; b < kHeapBlocks; ++b) {
    blocks[b] = static_cast<std::uint64_t*>(
        cstm::tx_malloc(tx, kBlockWords * sizeof(std::uint64_t)));
    for (std::size_t i = 0; i < kBlockWords; ++i) blocks[b][i] = seed + b * kBlockWords + i;
    escape(blocks[b]);
  }
}

void free_blocks(Tx& tx, std::uint64_t* (&blocks)[kHeapBlocks]) {
  for (std::uint64_t* b : blocks) cstm::tx_free(tx, b);
}

ProbeResult read_heap_hit(std::uint64_t seed) {
  Probe p = start("capture.read_heap_hit_ns", "runtime_rw", TxConfig::runtime_rw());
  const std::size_t stride = g_stride;
  std::uint64_t sink = 0;
  std::uint64_t want = 0;
  for (int r = 0; r < kReps; ++r) {
    std::int64_t ns = 0;
    std::uint64_t got = 0;
    std::uint64_t filled_sum = 0;
    cstm::atomic([&](Tx& tx) {
      std::uint64_t* blocks[kHeapBlocks];
      alloc_blocks(tx, blocks, seed);
      filled_sum = 0;
      for (std::uint64_t* b : blocks) filled_sum += sum(b, kBlockWords);
      const std::int64_t t0 = now_ns();
      std::uint64_t s = 0;
      for (std::size_t i = 0; i < kWords; ++i) {
        const std::size_t k = (i * stride) & (kWords - 1);
        s += cstm::tm_read(tx, &blocks[k / kBlockWords][k % kBlockWords],
                           cstm::kAutoSite);
      }
      ns = now_ns() - t0;
      got = s;
      free_blocks(tx, blocks);
    });
    p.per_rep_ns.push_back(static_cast<double>(ns) / kWords);
    sink += got;
    want += filled_sum;
  }
  const TxStats s = cstm::stats_snapshot();
  const std::uint64_t n = std::uint64_t{kWords} * kReps;
  p.expect(sink == want, "sink", sink, want);
  p.expect(s.read_elided_heap == n, "read_elided_heap", s.read_elided_heap, n);
  p.expect(s.reads == n, "reads", s.reads, n);
  return finish(p, s, kReps);
}

ProbeResult write_heap_hit(std::uint64_t seed) {
  Probe p = start("capture.write_heap_hit_ns", "runtime_rw", TxConfig::runtime_rw());
  const std::size_t stride = g_stride;
  std::uint64_t sink = 0;
  std::uint64_t want = 0;
  for (int r = 0; r < kReps; ++r) {
    std::int64_t ns = 0;
    std::uint64_t got = 0;
    const std::uint64_t base = seed + static_cast<std::uint64_t>(r);
    cstm::atomic([&](Tx& tx) {
      std::uint64_t* blocks[kHeapBlocks];
      alloc_blocks(tx, blocks, seed);
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < kWords; ++i) {
        const std::size_t k = (i * stride) & (kWords - 1);
        cstm::tm_write(tx, &blocks[k / kBlockWords][k % kBlockWords], base + k,
                       cstm::kAutoSite);
      }
      ns = now_ns() - t0;
      escape(blocks);
      got = 0;
      for (std::uint64_t* b : blocks) got += sum(b, kBlockWords);
      free_blocks(tx, blocks);
    });
    p.per_rep_ns.push_back(static_cast<double>(ns) / kWords);
    sink += got;
    want += base * kWords + kWords * (kWords - 1) / 2;
  }
  const TxStats s = cstm::stats_snapshot();
  const std::uint64_t n = std::uint64_t{kWords} * kReps;
  p.expect(sink == want, "sink", sink, want);
  p.expect(s.write_elided_heap == n, "write_elided_heap", s.write_elided_heap, n);
  p.expect(s.writes == n, "writes", s.writes, n);
  return finish(p, s, kReps);
}

ProbeResult read_miss(std::uint64_t seed) {
  Probe p = start("capture.read_miss_ns", "runtime_rw", TxConfig::runtime_rw());
  const std::vector<std::uint64_t> buf = filled(kWords, seed);
  const std::size_t stride = g_stride;
  std::uint64_t sink = 0;
  for (int r = 0; r < kReps; ++r) {
    std::int64_t ns = 0;
    std::uint64_t got = 0;
    cstm::atomic([&](Tx& tx) {
      // Keep the heap log non-empty so the failed check walks a real log.
      std::uint64_t* blocks[kHeapBlocks];
      alloc_blocks(tx, blocks, seed);
      const std::int64_t t0 = now_ns();
      std::uint64_t s = 0;
      for (std::size_t i = 0; i < kWords; ++i) {
        s += cstm::tm_read(tx, &buf[(i * stride) & (kWords - 1)], cstm::kAutoSite);
      }
      ns = now_ns() - t0;
      got = s;
      free_blocks(tx, blocks);
    });
    p.per_rep_ns.push_back(static_cast<double>(ns) / kWords);
    sink += got;
  }
  const TxStats s = cstm::stats_snapshot();
  const std::uint64_t n = std::uint64_t{kWords} * kReps;
  p.expect(sink == sum(buf.data(), kWords) * kReps, "sink", sink,
           sum(buf.data(), kWords) * kReps);
  p.expect(s.reads == n, "reads", s.reads, n);
  p.expect(s.read_elided() == 0, "read elisions", s.read_elided(), 0);
  return finish(p, s, kReps);
}

ProbeResult alloc_free(std::uint64_t seed) {
  Probe p = start("txmalloc.alloc_free_ns", "runtime_rw", TxConfig::runtime_rw());
  std::uint64_t sink = 0;
  for (int r = 0; r < kReps; ++r) {
    std::int64_t ns = 0;
    std::uint64_t got = 0;
    cstm::atomic([&](Tx& tx) {
      const std::int64_t t0 = now_ns();
      std::uint64_t s = 0;
      for (std::size_t i = 0; i < kAllocsPerRep; ++i) {
        auto* b = static_cast<std::uint64_t*>(cstm::tx_malloc(tx, 64));
        *b = seed + i;
        escape(b);
        s += *b;
        cstm::tx_free(tx, b);
      }
      ns = now_ns() - t0;
      got = s;
    });
    p.per_rep_ns.push_back(static_cast<double>(ns) / kAllocsPerRep);
    sink += got;
  }
  const TxStats s = cstm::stats_snapshot();
  const std::uint64_t n = std::uint64_t{kAllocsPerRep} * kReps;
  const std::uint64_t want =
      (seed * kAllocsPerRep + kAllocsPerRep * (kAllocsPerRep - 1) / 2) * kReps;
  p.expect(sink == want, "sink", sink, want);
  p.expect(s.tx_allocs == n, "tx_allocs", s.tx_allocs, n);
  p.expect(s.tx_frees == n, "tx_frees", s.tx_frees, n);
  return finish(p, s, kReps);
}

// -- durable (stream-durable-2t's preset: durable_rw) -----------------------

ProbeResult commit_1store(const std::string& work_dir, std::uint64_t seed) {
  Probe p = start("durable.commit_1store_ns", "durable_rw", TxConfig::durable_rw());
  const std::string path = work_dir + "/perfbench-probe-" +
                           std::to_string(::getpid()) + ".heap";
  std::remove(path.c_str());
  cstm::dur::DurableHeap heap;
  if (!heap.open(path)) {
    p.fail("cannot open durable heap " + path);
    return p.result;
  }
  heap.activate();
  constexpr std::size_t kCells = 64;
  auto* cells = static_cast<std::uint64_t*>(heap.data());
  for (int r = 0; r < kReps; ++r) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kDurableTxPerRep; ++i) {
      const auto k = static_cast<std::size_t>(r * kDurableTxPerRep + i);
      cstm::atomic([&](Tx& tx) { cstm::tm_write(tx, &cells[k % kCells], seed + k); });
    }
    p.per_rep_ns.push_back(static_cast<double>(now_ns() - t0) / kDurableTxPerRep);
  }
  const TxStats s = cstm::stats_snapshot();
  const std::uint64_t n = std::uint64_t{kReps} * kDurableTxPerRep;
  for (std::size_t k = n - kCells; k < n; ++k) {
    if (cells[k % kCells] != seed + k) {
      p.fail("durable cell " + std::to_string(k % kCells) + " holds a stale value");
      break;
    }
  }
  heap.deactivate();
  heap.close();
  std::remove(path.c_str());
  p.expect(s.durable_commits == n, "durable_commits", s.durable_commits, n);
  p.expect(s.durable_stores_logged == n, "durable_stores_logged",
           s.durable_stores_logged, n);
  p.expect(s.write_elided() == 0, "write elisions", s.write_elided(), 0);
  return finish(p, s, n);
}

}  // namespace

std::vector<ProbeResult> run_probes(const std::string& work_dir,
                                    std::uint64_t seed, Tracer* tracer,
                                    std::uint64_t parent) {
  struct Entry {
    const char* metric;
    std::function<ProbeResult()> run;
  };
  const std::vector<Entry> probes = {
      {"stm.read_full_ns", [&] { return read_full(seed); }},
      {"stm.write_full_ns", [&] { return write_full(seed); }},
      {"stm.tx_empty_ns", [] { return tx_empty(); }},
      {"capture.read_stack_hit_ns", [&] { return read_stack_hit(seed); }},
      {"capture.read_heap_hit_ns", [&] { return read_heap_hit(seed); }},
      {"capture.write_heap_hit_ns", [&] { return write_heap_hit(seed); }},
      {"capture.read_miss_ns", [&] { return read_miss(seed); }},
      {"txmalloc.alloc_free_ns", [&] { return alloc_free(seed); }},
      {"durable.commit_1store_ns",
       [&] { return commit_1store(work_dir, seed); }},
  };
  Lane* lane = tracer != nullptr ? &tracer->lane(0) : nullptr;
  std::vector<ProbeResult> out;
  for (const Entry& probe : probes) {
    ScopedSpan span(tracer, lane, "probe", "probe", parent, probe.metric);
    out.push_back(probe.run());
  }
  return out;
}

}  // namespace perfbench
