// Ownership records ("transaction records" in the paper, Section 2.1).
//
// A system-wide table maps each memory address, at cache-line granularity,
// to an ownership record. The record word encodes either
//   version << 1          (unlocked; version taken from the global clock) or
//   descriptor-ptr | 1    (locked by the writing transaction).
// Distinct addresses mapping to the same record produce false conflicts —
// the effect the paper's optimizations reduce by eliding barriers entirely.
//
// Layout: a flat array of 2^20 records indexed by the line number modulo
// the table size, `(addr >> 6) & (kSize - 1)`. Records therefore sit in
// address order:
//
//  * the same cache line always maps to the same record, adjacent lines to
//    adjacent (distinct) records, and two lines share a record exactly when
//    they are kSize lines (64 MB) apart;
//  * the records of the 8 lines of an aligned 512-byte window share one
//    cache line of the table, and one 4 KB table page covers 32 KB of data,
//    so a barrier walking a data structure touches the table about as
//    densely as it touches the data, and only the pages of the table that
//    cover live data are ever faulted in.
//
// The properties are pinned by tests/test_clock_orec.cpp.
#pragma once

#include <atomic>
#include <cstdint>

#include "support/cacheline.hpp"

namespace cstm {

namespace orec {

inline constexpr std::uint64_t kLockBit = 1;

inline bool is_locked(std::uint64_t word) { return (word & kLockBit) != 0; }
inline std::uint64_t version_of(std::uint64_t word) { return word >> 1; }
inline std::uint64_t make_version(std::uint64_t version) { return version << 1; }
inline std::uint64_t make_lock(const void* owner) {
  return reinterpret_cast<std::uintptr_t>(owner) | kLockBit;
}
inline void* owner_of(std::uint64_t word) {
  return reinterpret_cast<void*>(word & ~kLockBit);
}

}  // namespace orec

class OrecTable {
 public:
  static constexpr std::size_t kSizeLog2 = 20;
  static constexpr std::size_t kSize = std::size_t{1} << kSizeLog2;
  static constexpr std::size_t kGranularityLog2 = 6;  // cache line

  std::atomic<std::uint64_t>& slot(const void* addr) {
    return recs_[index_of(addr)];
  }

  /// Index helper exposed for tests exercising false-conflict behaviour.
  static std::size_t index_of(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    return static_cast<std::size_t>(a >> kGranularityLog2) & (kSize - 1);
  }

 private:
  // Zero-initialized at compile time: every record starts unlocked at
  // version 0.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> recs_[kSize]{};
};

/// The process-wide ownership record table: 8 MB of zeroed static storage
/// (.bss), so a barrier reaches it by address with no call and no
/// initialization guard. `constinit` makes any dynamic initializer a
/// compile error.
inline constinit OrecTable g_orec_table;

inline OrecTable& orec_table() { return g_orec_table; }

}  // namespace cstm
