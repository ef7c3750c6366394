// Per-thread transaction statistics, aggregated by the harness.
#pragma once

#include <cstdint>

namespace cstm {

struct TxStats {
  // Outcomes.
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;

  // Barrier invocations (every instrumented access).
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

  // Elisions by mechanism.
  std::uint64_t read_elided_stack = 0;
  std::uint64_t read_elided_heap = 0;
  std::uint64_t read_elided_private = 0;
  std::uint64_t read_elided_static = 0;
  std::uint64_t write_elided_stack = 0;
  std::uint64_t write_elided_heap = 0;
  std::uint64_t write_elided_private = 0;
  std::uint64_t write_elided_static = 0;

  // Fast path: write to an ownership record already held by this
  // transaction (the cheap write-after-write check the paper credits for
  // yada's baseline).
  std::uint64_t write_own_fast = 0;

  // Fig. 8 classification (count_mode only). Categories are mutually
  // exclusive and checked in the paper's order: tx-local heap, tx-local
  // stack, otherwise manual => required, else not-required-other.
  std::uint64_t read_cap_heap = 0;
  std::uint64_t read_cap_stack = 0;
  std::uint64_t read_not_required = 0;
  std::uint64_t read_required = 0;
  std::uint64_t write_cap_heap = 0;
  std::uint64_t write_cap_stack = 0;
  std::uint64_t write_not_required = 0;
  std::uint64_t write_required = 0;

  // Transactional allocator traffic.
  std::uint64_t tx_allocs = 0;
  std::uint64_t tx_frees = 0;

  // Allocations the inline array log could not track (ArrayAllocLog's
  // dropped counter, sampled per transaction at reset). Each one is a
  // conservative miss: the block's accesses pay full barriers. Before this
  // counter an overflowing array silently degraded capture-hit% with zero
  // observability.
  std::uint64_t array_overflows = 0;

  // Epoch-batched clock traffic (gclock.hpp): shared-counter range
  // reservations, stale ranges discarded without stamping, and lazy
  // read-set revalidations (Tx::extend) against the published epoch.
  std::uint64_t clock_reservations = 0;
  std::uint64_t clock_stale_discards = 0;
  std::uint64_t lazy_revalidations = 0;

  // Self-aborts on a lock conflict, decided by the backoff contention
  // policy (user aborts and validation failures are not counted here).
  std::uint64_t cm_aborts_backoff = 0;

  // Nested partial aborts (Tx::abort_nested): closed-nested levels rolled
  // back individually, whatever triggered them (user abort_tx, txbatch
  // sub-op compensation).
  std::uint64_t nested_partial_aborts = 0;

  // txbatch merge layer (src/txbatch/batcher.hpp): outer merged
  // transactions committed, sub-ops executed inside them, and sub-ops
  // rolled back by the per-op compensation path (requeued or failed
  // without touching their siblings).
  std::uint64_t batch_flushes = 0;
  std::uint64_t batch_ops = 0;
  std::uint64_t batch_op_compensations = 0;

  // Durable mode (src/durable/). Logged stores are the non-captured writes
  // that earned a redo entry; pwbs/pfences count the commit protocol's
  // persistence traffic (simulated or real, same call sites); captured
  // writebacks are blocks from DurableHeap::alloc persisted wholesale
  // instead of entry-by-entry.
  std::uint64_t durable_commits = 0;
  std::uint64_t durable_stores_logged = 0;
  std::uint64_t durable_pwbs = 0;
  std::uint64_t durable_pfences = 0;
  std::uint64_t durable_log_bytes = 0;
  std::uint64_t durable_captured_writebacks = 0;
  std::uint64_t durable_allocs = 0;

  std::uint64_t read_elided() const {
    return read_elided_stack + read_elided_heap + read_elided_private +
           read_elided_static;
  }
  std::uint64_t write_elided() const {
    return write_elided_stack + write_elided_heap + write_elided_private +
           write_elided_static;
  }

  double abort_to_commit_ratio() const {
    return commits == 0 ? 0.0
                        : static_cast<double>(aborts) /
                              static_cast<double>(commits);
  }

  // -- Per-run report ratios (harness stats block / BENCH_*.json) ------------

  /// Percentage of instrumented accesses that hit CAPTURED memory (the
  /// paper's tx-local stack + tx-local heap classes) and skipped their
  /// barrier. This is the counter batching moves: merged transactions
  /// allocate more, so more of their footprint is captured.
  double capture_hit_percent() const {
    const std::uint64_t accesses = reads + writes;
    const std::uint64_t hits = read_elided_stack + read_elided_heap +
                               write_elided_stack + write_elided_heap;
    return accesses == 0 ? 0.0
                         : 100.0 * static_cast<double>(hits) /
                               static_cast<double>(accesses);
  }

  /// Percentage of in-transaction allocations the inline array log dropped
  /// on overflow. Non-zero means the array is undersized for this workload:
  /// those blocks' accesses paid full barriers.
  double capture_overflow_percent() const {
    return tx_allocs == 0 ? 0.0
                          : 100.0 * static_cast<double>(array_overflows) /
                                static_cast<double>(tx_allocs);
  }

  /// Of the stores a durable plan would have to make persistent, the
  /// percentage that skipped redo logging and flushing because capture
  /// classified them transaction-local. The denominator is elided stores
  /// plus redo-logged stores — i.e. every instrumented store that reached
  /// its barrier's decision point under a durable plan. 100% means a fully
  /// captured workload paid zero per-store flush traffic.
  double flushes_elided_percent() const {
    const std::uint64_t denom = write_elided() + durable_stores_logged;
    return denom == 0 ? 0.0
                      : 100.0 * static_cast<double>(write_elided()) /
                            static_cast<double>(denom);
  }

  /// Percentage of instrumented accesses elided by ANY mechanism (capture,
  /// private-region annotations, static verdicts).
  double elided_percent() const {
    const std::uint64_t accesses = reads + writes;
    return accesses == 0 ? 0.0
                         : 100.0 *
                               static_cast<double>(read_elided() + write_elided()) /
                               static_cast<double>(accesses);
  }

  void add(const TxStats& o) {
    commits += o.commits;
    aborts += o.aborts;
    reads += o.reads;
    writes += o.writes;
    read_elided_stack += o.read_elided_stack;
    read_elided_heap += o.read_elided_heap;
    read_elided_private += o.read_elided_private;
    read_elided_static += o.read_elided_static;
    write_elided_stack += o.write_elided_stack;
    write_elided_heap += o.write_elided_heap;
    write_elided_private += o.write_elided_private;
    write_elided_static += o.write_elided_static;
    write_own_fast += o.write_own_fast;
    read_cap_heap += o.read_cap_heap;
    read_cap_stack += o.read_cap_stack;
    read_not_required += o.read_not_required;
    read_required += o.read_required;
    write_cap_heap += o.write_cap_heap;
    write_cap_stack += o.write_cap_stack;
    write_not_required += o.write_not_required;
    write_required += o.write_required;
    tx_allocs += o.tx_allocs;
    tx_frees += o.tx_frees;
    array_overflows += o.array_overflows;
    clock_reservations += o.clock_reservations;
    clock_stale_discards += o.clock_stale_discards;
    lazy_revalidations += o.lazy_revalidations;
    cm_aborts_backoff += o.cm_aborts_backoff;
    nested_partial_aborts += o.nested_partial_aborts;
    batch_flushes += o.batch_flushes;
    batch_ops += o.batch_ops;
    batch_op_compensations += o.batch_op_compensations;
    durable_commits += o.durable_commits;
    durable_stores_logged += o.durable_stores_logged;
    durable_pwbs += o.durable_pwbs;
    durable_pfences += o.durable_pfences;
    durable_log_bytes += o.durable_log_bytes;
    durable_captured_writebacks += o.durable_captured_writebacks;
    durable_allocs += o.durable_allocs;
  }

  void reset() { *this = TxStats{}; }
};

/// Sum of the statistics of all live descriptors plus all retired
/// (destroyed) descriptors since the last reset.
TxStats stats_snapshot();

/// Zeroes all live descriptors' statistics and the retired accumulator.
/// Call only while no transactions are running.
void stats_reset();

}  // namespace cstm
