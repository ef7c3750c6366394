// Search-tree allocation log (paper Section 3.1.2, Figure 5): precise
// membership over disjoint allocated ranges.
//
// The paper describes an envelope tree: internal nodes hold the min/max of
// their children, so a miss outside the root's bounds stops at the root.
// We keep that envelope only at the root: [lo_, hi_) bounds every live
// block, and the inline contains() rejects any access outside it with two
// compares, before any call. Accesses inside the envelope go to the precise
// part, an AVL tree keyed by block base with a floor search. Because
// allocator blocks are pairwise disjoint, the candidate block containing an
// address is exactly the one with the greatest base <= address, found in
// O(log n) comparisons.
//
// The envelope widens on insert, resets on clear (and when an erase empties
// the tree), and never shrinks otherwise, so it is always a superset of the
// live blocks. It is a prefilter in front of the precise walk, never the
// sole decider, so it cannot produce a false positive.
#pragma once

#include <cstdint>
#include <vector>

#include "capture/alloc_log.hpp"

namespace cstm {

class TreeAllocLog {
 public:
  TreeAllocLog();

  void insert(const void* addr, std::size_t size);
  void erase(const void* addr, std::size_t size);
  /// Envelope reject inline; only accesses inside [lo_, hi_) walk the tree.
  bool contains(const void* addr, std::size_t size) const {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    if (a < lo_ || a + size > hi_) return false;
    return contains_walk(a, size);
  }
  void clear();
  std::size_t entries() const { return count_; }
  const char* name() const { return "tree"; }

  /// Height of the AVL tree (diagnostic, exercised by tests).
  int height() const;
  /// The envelope [lo, hi) (diagnostic, exercised by tests); lo > hi when
  /// the log is empty.
  std::uintptr_t envelope_lo() const { return lo_; }
  std::uintptr_t envelope_hi() const { return hi_; }

 private:
  static constexpr std::int32_t kNil = -1;

  struct Node {
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;
    std::int32_t left = kNil;
    std::int32_t right = kNil;
    std::int32_t height = 1;
  };

  std::int32_t node_height(std::int32_t n) const {
    return n == kNil ? 0 : nodes_[static_cast<std::size_t>(n)].height;
  }
  void update(std::int32_t n);
  std::int32_t rotate_left(std::int32_t n);
  std::int32_t rotate_right(std::int32_t n);
  std::int32_t rebalance(std::int32_t n);
  bool contains_walk(std::uintptr_t a, std::size_t size) const;
  void reset_envelope() {
    lo_ = UINTPTR_MAX;
    hi_ = 0;
  }
  std::int32_t insert_rec(std::int32_t n, std::uintptr_t begin,
                          std::uintptr_t end, bool& added);
  std::int32_t erase_rec(std::int32_t n, std::uintptr_t begin, bool& erased);
  std::int32_t detach_min(std::int32_t n, std::int32_t& min_out);
  std::int32_t alloc_node(std::uintptr_t begin, std::uintptr_t end);
  void free_node(std::int32_t n);

  /// Bounding range of the live blocks (empty: lo_ > hi_).
  std::uintptr_t lo_ = UINTPTR_MAX;
  std::uintptr_t hi_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::int32_t> free_list_;
  std::int32_t root_ = kNil;
  std::size_t count_ = 0;
};

static_assert(CaptureLog<TreeAllocLog>);

}  // namespace cstm
