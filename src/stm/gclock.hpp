// Global version clock for optimistic-reader validation (TL2/TinySTM).
//
// One counter. Readers snapshot it at begin (`load`) and re-snapshot it in
// Tx::extend; every writing commit, and every abort that releases owned
// records, draws a stamp with one fetch_add (`advance`). Two facts carry
// the snapshot argument:
//
//  * Publish-before-release: a stamp is visible in the counter as soon as
//    fetch_add returns, which is after the committer acquired every lock in
//    its write set and before it releases any record with that version. A
//    reader with `start_ts >= wv` therefore sees either the lock or the
//    released post-state; a reader with `start_ts < wv` extends to a
//    `load()` that already covers `wv`.
//  * Uniqueness: fetch_add never hands out the same stamp twice, so released
//    versions are globally fresh (the anti-ABA rule of the abort path).
//
// 63-bit timestamp space (orec words store `version << 1`): at one billion
// commits per second exhausting it takes ~290 years, so wraparound is out of
// scope by construction.
#pragma once

#include <atomic>
#include <cstdint>

#include "support/cacheline.hpp"

namespace cstm {

class GlobalClock {
 public:
  /// The latest stamp drawn: every timestamp <= this value is visible.
  std::uint64_t load() const {
    return now_.value.load(std::memory_order_acquire);
  }

  /// Draws a fresh stamp and returns the PREVIOUS value; the stamp is that
  /// value + 1. A committer whose previous value equals its begin snapshot
  /// saw no commit in between (the classic `wv == start_ts + 1` skip).
  std::uint64_t advance() {
    return now_.value.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  Padded<std::atomic<std::uint64_t>> now_{};
};

/// The process-wide clock. Never reset — monotonicity keeps stale ownership
/// record versions from previous runs harmless.
GlobalClock& global_clock();

}  // namespace cstm
