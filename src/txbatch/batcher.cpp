#include "txbatch/batcher.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "stm/descriptor.hpp"
#include "stm/txn.hpp"

namespace cstm::txbatch {

Batcher::Batcher(BatcherOptions opts) : opts_(std::move(opts)) {
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  window_ = opts_.max_batch;
}

bool Batcher::deadline_expired() const {
  if (opts_.max_delay.count() == 0 || queue_.empty()) return false;
  return std::chrono::steady_clock::now() - oldest_enqueue_ >= opts_.max_delay;
}

Completion Batcher::enqueue(std::function<void(Tx&)> fn, std::uint64_t tag) {
  // An overdue queue flushes BEFORE the new op joins: the deadline is a
  // latency bound on the ops already waiting, not on the newcomer.
  if (deadline_expired()) flush();
  auto rec = std::make_shared<detail::OpRecord>();
  rec->fn = std::move(fn);
  rec->info = OpInfo{tag, next_seq_++};
  rec->retries_left = opts_.max_retries;
  if (queue_.empty()) oldest_enqueue_ = std::chrono::steady_clock::now();
  queue_.push_back(rec);
  ++stats_.ops_enqueued;
  if (queue_.size() >= opts_.max_batch) flush();
  return Completion(std::move(rec));
}

std::size_t Batcher::flush() {
  if (queue_.empty()) return 0;

  // Pull the longest policy-compatible FIFO prefix, capped at max_batch.
  std::vector<std::shared_ptr<detail::OpRecord>> batch;
  batch.reserve(opts_.max_batch);
  batch.push_back(queue_.front());
  queue_.pop_front();
  while (batch.size() < opts_.max_batch && !queue_.empty()) {
    if (opts_.policy &&
        !opts_.policy(batch.front()->info, queue_.front()->info)) {
      break;
    }
    batch.push_back(queue_.front());
    queue_.pop_front();
  }
  if (!queue_.empty()) oldest_enqueue_ = std::chrono::steady_clock::now();

  // Run the pulled ops as a sequence of outer transactions, each a FIFO
  // prefix of what is left; batch[0, done) is settled. `ran` records which
  // ops completed IN THE CURRENT ATTEMPT (each attempt clears an op's flag
  // before running it). An op whose nested transaction user-aborts leaves
  // its flag 0: the partial abort already rolled back exactly its writes
  // (captured memory included, via the nested undo path), so execution
  // simply proceeds to the next sibling.
  std::vector<std::uint8_t> ran(batch.size(), 0);
  std::size_t done = 0;
  std::size_t n = 0;  // ops in the current attempt: batch[done, done + n)
  try {
    while (done < batch.size()) {
      const std::size_t first = std::min(batch.size() - done, window_);
      unsigned k = 0;           // conflict aborts before the attempt
      std::size_t started = 0;  // ops the attempt has begun
      atomic([&](Tx& outer) {
        // Attempt k runs only the first `first >> k` ops: a conflicted
        // batch halves until its prefix commits. On a retry, `started`
        // still holds the ops the conflict-aborted attempt ran.
        outer.stats.batch_ops_reexecuted += started;
        k = outer.consecutive_aborts;
        n = std::max<std::size_t>(
            1, k < std::numeric_limits<std::size_t>::digits ? first >> k : 0);
        for (started = 0; started < n;) {
          const std::size_t i = done + started++;
          ran[i] = 0;
          atomic([&, i](Tx& sub) {
            batch[i]->fn(sub);
            ran[i] = 1;  // last statement: unreached when the op aborts
          });
        }
      });
      settle(batch, done, n, ran);
      resize_window(n, k > 0);
      done += n;
    }
  } catch (...) {
    // A non-transactional exception cancelled the current attempt: its
    // ops' effects are gone, and no undecided op may report kCommitted.
    // Prefixes that committed before it stay committed.
    for (std::size_t i = done; i < batch.size(); ++i) {
      if (i < done + n) ++batch[i]->attempts;
      batch[i]->state = OpState::kFailed;
      ++stats_.ops_failed;
    }
    throw;
  }
  return batch.size();
}

void Batcher::settle(const std::vector<std::shared_ptr<detail::OpRecord>>& batch,
                     std::size_t from, std::size_t n,
                     const std::vector<std::uint8_t>& ran) {
  std::uint64_t compensated = 0;
  for (std::size_t i = from; i < from + n; ++i) {
    const auto& op = batch[i];
    ++op->attempts;
    if (ran[i]) {
      op->state = OpState::kCommitted;
      ++stats_.ops_committed;
    } else if (op->retries_left > 0) {
      --op->retries_left;
      op->state = OpState::kPending;
      if (queue_.empty()) oldest_enqueue_ = std::chrono::steady_clock::now();
      queue_.push_back(op);
      ++stats_.ops_requeued;
      ++compensated;
    } else {
      op->state = OpState::kFailed;
      ++stats_.ops_failed;
      ++compensated;
    }
  }
  ++stats_.batches;

  // Fold into the thread's TxStats so the harness can report merge traffic
  // and per-batch-size capture hit rates from one snapshot.
  Tx& tx = current_tx();
  tx.stats.batch_flushes += 1;
  tx.stats.batch_ops += n;
  tx.stats.batch_op_compensations += compensated;
}

void Batcher::resize_window(std::size_t committed, bool conflicted) {
  if (conflicted) {
    window_ = committed;
    clean_commits_ = 0;
  } else if (++clean_commits_ >= window_) {
    clean_commits_ = 0;
    if (window_ < opts_.max_batch) ++window_;
  }
}

void Batcher::drain() {
  while (!queue_.empty()) flush();
}

}  // namespace cstm::txbatch
