// txbatch: a transaction merging & batching front-end, grounded in
// "Improving Database Performance by Application-side Transaction Merging".
//
// Tiny transactions leave the capture-elision machinery idle: they allocate
// little, so almost every access hits pre-existing shared data and pays a
// full barrier, and the per-transaction fixed costs (begin_top's plan/log
// reset, commit_top's clock publication and orec releases) dominate the few
// useful accesses. The Batcher queues small transactional operations and
// executes them merged, several inside ONE outer STM transaction:
//
//   queue ──policy──▶ [op1 op2 ... opN]  ──▶  atomic(outer) {
//                                               nested{op1} nested{op2} ...
//                                             }
//
//  * Begin/commit costs are paid once per outer transaction, not per op.
//  * Memory allocated by op i is CAPTURED for every later op in the same
//    outer transaction — merged transactions allocate more, so a larger
//    fraction of their footprint goes barrier-free (the paper's Section 3
//    machinery, force-multiplied).
//  * Per-sub-transaction abort compensation: each op runs as a closed
//    nested transaction, so an op that aborts for its own reasons (user
//    retry/cancel via cstm::abort_tx()) is rolled back by the existing
//    partial-abort machinery — including captured-memory writes, restored
//    by the nested undo path — and is requeued or failed INDIVIDUALLY,
//    without discarding its already-executed siblings' effects.
//
// Merging only pays while it costs no reruns. A conflict abort
// (TxAbortException) rolls back the whole outer transaction, and every op
// in it runs again; encounter-time locks are held across all of them, so
// a large merge conflicts more. A flush therefore runs the ops it pulled
// as a sequence of outer transactions, each a FIFO prefix of what is left:
//
//  * Shrink on retry: attempt k of an outer transaction (k =
//    Tx::consecutive_aborts) runs only the first max(1, first >> k) ops,
//    where `first` is its first attempt's size. The prefix that commits is
//    settled, and the flush goes on with the rest.
//  * Adaptive window: the first attempt is bounded by a per-Batcher
//    window, starting at and capped by max_batch. After a conflict the
//    window becomes the size that finally committed; it grows by one after
//    `window` consecutive clean commits. A lone thread has no conflict
//    aborts, so its batches stay whole.
//
// Ops must still be idempotent under re-execution, exactly like any
// transactional closure. Every op a flush pulled is decided (committed,
// failed or requeued by compensation) when it returns, exactly once and in
// FIFO order. A non-transactional exception escaping an op cancels the
// outer transaction it ran in: prefixes committed earlier in the flush
// stay kCommitted, every undecided op of the flush is marked kFailed, and
// the exception propagates.
//
// Threading contract: a Batcher is a same-thread object. Ops enqueued on
// one thread execute on that thread, in FIFO order, when a flush runs
// (size reached, enqueue-time deadline exceeded, or explicit drain). For
// server-style request batches, give each worker thread its own Batcher
// and route compatible requests to it; the compatibility policy hook
// below decides which queued ops may merge into one outer transaction.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

namespace cstm {
class Tx;
}

namespace cstm::txbatch {

/// Lifecycle of one enqueued op, observable through its Completion token.
enum class OpState : std::uint8_t {
  kPending = 0,   // queued, or requeued after a compensated abort
  kCommitted = 1, // ran to completion inside a committed batch
  kFailed = 2,    // aborted (user abort) with no retry budget left, or
                  // its flush was cut short by an escaping exception
};

/// What a compatibility policy sees about an op. `tag` is caller-assigned
/// (shard id, session id, table id — whatever "compatible" means for the
/// workload); `seq` is the op's FIFO position since the Batcher was built.
struct OpInfo {
  std::uint64_t tag = 0;
  std::uint64_t seq = 0;
};

/// Decides whether `candidate` may join a batch currently led by `head`.
/// Returning false closes the batch: the candidate stays queued and leads
/// the next one. The default (no policy installed) is the conservative
/// same-thread FIFO merge: any op merges, because the queue already IS the
/// program order of a single thread. Server batches install a predicate
/// (e.g. same-shard tags only) to keep incompatible requests apart.
using MergePolicy = std::function<bool(const OpInfo& head, const OpInfo& candidate)>;

namespace detail {
struct OpRecord {
  std::function<void(Tx&)> fn;
  OpInfo info;
  OpState state = OpState::kPending;
  unsigned attempts = 0;      // committed or cancelled outer runs of it
  unsigned retries_left = 0;  // compensated-abort requeue budget
};
}  // namespace detail

/// Completion token returned by Batcher::enqueue — the caller's handle for
/// the op's fate after some later flush ran it. Cheap to copy; outlives the
/// Batcher safely.
class Completion {
 public:
  Completion() = default;
  /// kPending until a flush decided the op's fate.
  OpState state() const { return rec_ ? rec_->state : OpState::kFailed; }
  bool committed() const { return state() == OpState::kCommitted; }
  bool failed() const { return state() == OpState::kFailed; }
  /// How many outer transactions ran this op and then committed or were
  /// cancelled (>1 after requeues). Conflict-aborted attempts, which are
  /// retried, do not count.
  unsigned attempts() const { return rec_ ? rec_->attempts : 0; }

 private:
  friend class Batcher;
  explicit Completion(std::shared_ptr<detail::OpRecord> rec)
      : rec_(std::move(rec)) {}
  std::shared_ptr<detail::OpRecord> rec_;
};

struct BatcherOptions {
  /// Flush as soon as this many compatible ops are queued, and pull at
  /// most this many per flush. Also the cap of the adaptive window that
  /// sizes each outer transaction (see the header comment).
  std::size_t max_batch = 16;
  /// When nonzero: an enqueue that finds the oldest queued op older than
  /// this flushes first (same-thread Batchers have no background timer, so
  /// the deadline is checked at enqueue and drain boundaries).
  std::chrono::microseconds max_delay{0};
  /// Requeue budget for ops whose nested transaction user-aborts: 0 means
  /// one strike and the op is kFailed (no hidden infinite retry loops).
  unsigned max_retries = 0;
  /// Compatibility policy; empty = same-thread FIFO merge (see MergePolicy).
  MergePolicy policy;
};

struct BatcherStats {
  std::uint64_t batches = 0;        // outer transactions committed
  std::uint64_t ops_enqueued = 0;
  std::uint64_t ops_committed = 0;
  std::uint64_t ops_failed = 0;
  std::uint64_t ops_requeued = 0;   // compensated aborts sent back to queue
};

class Batcher {
 public:
  explicit Batcher(BatcherOptions opts = {});

  /// Queues @p fn for execution inside a future merged transaction. May
  /// flush synchronously (size or deadline reached) before returning.
  Completion enqueue(std::function<void(Tx&)> fn, std::uint64_t tag = 0);

  /// Pulls up to max_batch compatible ops from the queue head and runs
  /// them now, in as few outer transactions as conflicts allow. Returns
  /// the number of ops pulled, all decided; 0 when the queue is empty.
  std::size_t flush();

  /// Flushes until the queue is empty, including ops requeued by the
  /// compensation path during the drain itself.
  void drain();

  std::size_t pending() const { return queue_.size(); }
  const BatcherStats& stats() const { return stats_; }
  const BatcherOptions& options() const { return opts_; }
  /// Size bound of the next outer transaction's first attempt.
  std::size_t window() const { return window_; }

 private:
  bool deadline_expired() const;
  /// Settles batch[from, from + n), which committed in one outer
  /// transaction.
  void settle(const std::vector<std::shared_ptr<detail::OpRecord>>& batch,
              std::size_t from, std::size_t n,
              const std::vector<std::uint8_t>& ran);
  void resize_window(std::size_t committed, bool conflicted);

  BatcherOptions opts_;
  BatcherStats stats_;
  std::deque<std::shared_ptr<detail::OpRecord>> queue_;
  std::chrono::steady_clock::time_point oldest_enqueue_{};
  std::uint64_t next_seq_ = 0;
  std::size_t window_ = 0;
  std::size_t clean_commits_ = 0;  // clean commits since the window changed
};

}  // namespace cstm::txbatch
