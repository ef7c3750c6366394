// The paper's contention policy: a transaction that finds a record locked
// aborts itself and pauses for a randomized, exponentially growing interval
// before retrying (the policy whose run-to-run variance at 16 threads the
// paper discusses).
#pragma once

#include <cstdint>

#include "support/cacheline.hpp"
#include "support/random.hpp"

namespace cstm {

class ExponentialBackoff {
 public:
  explicit ExponentialBackoff(std::uint64_t seed) : rng_(seed | 1) {}

  /// Spin for a randomized interval that doubles with each consecutive
  /// abort, capped to keep worst-case latency bounded.
  void pause(unsigned consecutive_aborts) {
    unsigned shift = consecutive_aborts < kMaxShift ? consecutive_aborts : kMaxShift;
    const std::uint64_t max_spins = kMinSpins << shift;
    const std::uint64_t spins = kMinSpins + rng_.below(max_spins);
    for (std::uint64_t i = 0; i < spins; ++i) cpu_relax();
  }

 private:
  static constexpr unsigned kMaxShift = 12;
  static constexpr std::uint64_t kMinSpins = 16;
  Xoshiro256 rng_;
};

}  // namespace cstm
