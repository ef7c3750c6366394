// Micro-benchmarks of the barrier primitives: cost of a full barrier vs an
// elided barrier under each capture-check mechanism, plus the ablation the
// paper implies (how much a failed runtime check costs on top of a full
// barrier). google-benchmark based.
//
// The BM_Dispatch_* group measures the per-transaction barrier-plan
// dispatch: the capture-hit paths under each specialized plan (stack /
// heap×{tree,array,filter} / static), read and write side. These are the
// paths the plan refactor devirtualized — a regression here means an
// indirect call or config branch crept back into the hot loop.
#include <benchmark/benchmark.h>

#include "gbench_smoke.hpp"

#include <cstdint>
#include <vector>

#include "capture/array_log.hpp"
#include "stm/stm.hpp"
#include "support/cacheline.hpp"

namespace {

using namespace cstm;

void BM_FullReadBarrier(benchmark::State& state) {
  set_global_config(TxConfig::baseline());
  std::vector<std::uint64_t> data(1024, 1);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    atomic([&](Tx& tx) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        sink += tm_read(tx, &data[i]);
      }
    });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FullReadBarrier);

// The same barrier over a cold 16 MB working set: one word per cache line,
// each transaction reading the next 1024 lines, so every access misses the
// core's caches for both the data and its ownership record. It shows how
// densely records of neighbouring lines sit in the table, which the hot
// 8 KB array above cannot.
void BM_FullReadBarrier_Cold16MB(benchmark::State& state) {
  set_global_config(TxConfig::baseline());
  constexpr std::size_t kStep = kCacheLineSize / sizeof(std::uint64_t);
  std::vector<std::uint64_t> data((std::size_t{16} << 20) / sizeof(std::uint64_t),
                                  1);
  std::size_t next = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const std::size_t start = next;
    atomic([&](Tx& tx) {
      next = start;
      for (int i = 0; i < 1024; ++i) {
        sink += tm_read(tx, &data[next]);
        next += kStep;
        if (next == data.size()) next = 0;
      }
    });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FullReadBarrier_Cold16MB);

void BM_FullWriteBarrier(benchmark::State& state) {
  set_global_config(TxConfig::baseline());
  std::vector<std::uint64_t> data(1024, 1);
  for (auto _ : state) {
    atomic([&](Tx& tx) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        tm_write(tx, &data[i], i);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FullWriteBarrier);

// A runtime check that always misses: the pure overhead kmeans pays. Each
// transaction first allocates a few live blocks, so every check fails
// against a populated log (as perfbench's read_miss probe does) rather than
// an empty one, and the accesses walk the data with an odd stride read from
// a volatile, so no check can be hoisted out of the loop.
constexpr std::size_t kLiveBlocks = ArrayAllocLog::kCapacity;
volatile std::size_t g_stride = 1031;

void alloc_live_blocks(Tx& tx, void* (&blocks)[kLiveBlocks]) {
  for (void*& b : blocks) b = tx_malloc(tx, 64);
}

void free_live_blocks(Tx& tx, void* (&blocks)[kLiveBlocks]) {
  for (void* b : blocks) tx_free(tx, b);
}

void BM_WriteBarrier_FailedRuntimeCheck(benchmark::State& state) {
  set_global_config(TxConfig::runtime_rw(
      static_cast<AllocLogKind>(state.range(0))));
  std::vector<std::uint64_t> data(1024, 1);
  const std::size_t stride = g_stride;
  for (auto _ : state) {
    atomic([&](Tx& tx) {
      void* blocks[kLiveBlocks];
      alloc_live_blocks(tx, blocks);
      for (std::size_t i = 0; i < data.size(); ++i) {
        tm_write(tx, &data[(i * stride) & 1023], i, kAutoSite);
      }
      free_live_blocks(tx, blocks);
    });
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_WriteBarrier_FailedRuntimeCheck)->Arg(0)->Arg(1)->Arg(2);

// Read side of the failed check: stack, heap-log and registry checks all
// miss, then the full read barrier runs.
void BM_ReadBarrier_FailedRuntimeCheck(benchmark::State& state) {
  set_global_config(TxConfig::runtime_rw(
      static_cast<AllocLogKind>(state.range(0))));
  std::vector<std::uint64_t> data(1024, 1);
  const std::size_t stride = g_stride;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    atomic([&](Tx& tx) {
      void* blocks[kLiveBlocks];
      alloc_live_blocks(tx, blocks);
      for (std::size_t i = 0; i < data.size(); ++i) {
        sink += tm_read(tx, &data[(i * stride) & 1023], kAutoSite);
      }
      free_live_blocks(tx, blocks);
    });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ReadBarrier_FailedRuntimeCheck)->Arg(0)->Arg(1)->Arg(2);

// A runtime check that always hits: captured heap writes.
void BM_WriteBarrier_ElidedHeap(benchmark::State& state) {
  set_global_config(TxConfig::runtime_w(
      static_cast<AllocLogKind>(state.range(0))));
  for (auto _ : state) {
    atomic([&](Tx& tx) {
      auto* block = static_cast<std::uint64_t*>(tx_malloc(tx, 1024 * 8));
      for (std::size_t i = 0; i < 1024; ++i) {
        tm_write(tx, &block[i], i, kAutoSite);
      }
      tx_free(tx, block);
    });
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_WriteBarrier_ElidedHeap)->Arg(0)->Arg(1)->Arg(2);

// Stack capture: the single range check of Figure 4.
void BM_WriteBarrier_ElidedStack(benchmark::State& state) {
  set_global_config(TxConfig::runtime_w());
  for (auto _ : state) {
    atomic([&](Tx& tx) {
      std::uint64_t local[1024];
      for (std::size_t i = 0; i < 1024; ++i) {
        tm_write(tx, &local[i], i, kAutoSite);
      }
      benchmark::DoNotOptimize(local);
    });
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_WriteBarrier_ElidedStack);

// Compiler elision: zero runtime cost beyond the counter.
void BM_WriteBarrier_StaticElision(benchmark::State& state) {
  set_global_config(TxConfig::compiler());
  for (auto _ : state) {
    atomic([&](Tx& tx) {
      auto* block = static_cast<std::uint64_t*>(tx_malloc(tx, 1024 * 8));
      for (std::size_t i = 0; i < 1024; ++i) {
        tm_write(tx, &block[i], i, kAutoCapturedSite);
      }
      tx_free(tx, block);
    });
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_WriteBarrier_StaticElision);

// -- Dispatch-cost measurements (the plan-specialized capture-hit paths) ----

// Heap-hit READ path: the capture check that must "pay for itself on every
// workload". One membership query per read, always a hit, no indirect call.
void BM_Dispatch_ReadElidedHeap(benchmark::State& state) {
  set_global_config(TxConfig::runtime_rw(
      static_cast<AllocLogKind>(state.range(0))));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    atomic([&](Tx& tx) {
      auto* block = static_cast<std::uint64_t*>(tx_malloc(tx, 1024 * 8));
      for (std::size_t i = 0; i < 1024; ++i) {
        tm_write(tx, &block[i], i, kAutoSite);
      }
      for (std::size_t i = 0; i < 1024; ++i) {
        sink += tm_read(tx, &block[i], kAutoSite);
      }
      tx_free(tx, block);
    });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Dispatch_ReadElidedHeap)->Arg(0)->Arg(1)->Arg(2);

// Stack-hit READ path: the single range check of Figure 4, read side.
void BM_Dispatch_ReadElidedStack(benchmark::State& state) {
  set_global_config(TxConfig::runtime_rw());
  std::uint64_t sink = 0;
  for (auto _ : state) {
    atomic([&](Tx& tx) {
      std::uint64_t local[1024] = {};
      for (std::size_t i = 0; i < 1024; ++i) {
        sink += tm_read(tx, &local[i], kAutoSite);
      }
      benchmark::DoNotOptimize(local);
    });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Dispatch_ReadElidedStack);

// Static-elision READ path: the kStatic plan's Site-flag test.
void BM_Dispatch_ReadStaticElision(benchmark::State& state) {
  set_global_config(TxConfig::compiler());
  std::uint64_t sink = 0;
  for (auto _ : state) {
    atomic([&](Tx& tx) {
      auto* block = static_cast<std::uint64_t*>(tx_malloc(tx, 1024 * 8));
      for (std::size_t i = 0; i < 1024; ++i) {
        tm_write(tx, &block[i], i, kAutoCapturedSite);
      }
      for (std::size_t i = 0; i < 1024; ++i) {
        sink += tm_read(tx, &block[i], kAutoCapturedSite);
      }
      tx_free(tx, block);
    });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Dispatch_ReadStaticElision);

// Proven-captured WRITE path: the analysis-driven elision the txir
// pipeline emits (Site verdict kCaptured under the kStatic plan). Must
// cost no more than the elided-stack path: one flag test, zero log
// probes, no stack range check. Loop length matches
// BM_WriteBarrier_ElidedStack for a direct per-access comparison.
void BM_Dispatch_WriteProvenCaptured(benchmark::State& state) {
  set_global_config(TxConfig::compiler());
  for (auto _ : state) {
    atomic([&](Tx& tx) {
      auto* block = static_cast<std::uint64_t*>(tx_malloc(tx, 1024 * 8));
      for (std::size_t i = 0; i < 1024; ++i) {
        tm_write(tx, &block[i], i, kAutoCapturedSite);
      }
      tx_free(tx, block);
    });
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Dispatch_WriteProvenCaptured);

// Baseline-plan dispatch overhead: a kFull plan still goes through the
// plan switch before the full barrier; compare against BM_FullReadBarrier
// from the pre-plan code to see the slot's cost (it should be free — the
// switch replaces the old chain of cfg tests).
void BM_Dispatch_FullBarrierViaPlan(benchmark::State& state) {
  set_global_config(TxConfig::baseline());
  std::vector<std::uint64_t> data(1024, 1);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    atomic([&](Tx& tx) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        sink += tm_read(tx, &data[i]);
        tm_write(tx, &data[i], sink);
      }
    });
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_Dispatch_FullBarrierViaPlan);

}  // namespace

int main(int argc, char** argv) { return cstm::bench::gbench_main(argc, argv); }
