// Private-region registry backing the data-annotation APIs (paper
// Section 3.1.3 and Figure 7). A thread annotates address ranges as
// thread-local or read-only; barriers executed by that thread may then
// access the ranges directly. Unlike the per-transaction allocation log the
// registry persists across transactions — it is only modified by the
// annotation APIs. Incorrect annotations can introduce data races, exactly
// as the paper warns. It is a TreeAllocLog, so a barrier whose access falls
// outside the bounding range of the annotated blocks fails the registry
// check with the tree's inline envelope test, without a call.
#pragma once

#include <cstddef>

#include "capture/tree_log.hpp"

namespace cstm {

class PrivateRegistry {
 public:
  void add(const void* addr, std::size_t size) { log_.insert(addr, size); }
  void remove(const void* addr, std::size_t size) { log_.erase(addr, size); }
  bool contains(const void* addr, std::size_t size) const {
    return log_.contains(addr, size);
  }
  std::size_t entries() const { return log_.entries(); }
  void clear() { log_.clear(); }

 private:
  TreeAllocLog log_;
};

/// The calling thread's registry (thread-local storage).
PrivateRegistry& thread_private_registry();

// -- Public annotation API (paper Figure 7 names, snake_cased) --------------

/// Declares [addr, addr+size) safe for direct access by the calling thread
/// (thread-local or read-only data). Affects only this thread's barriers.
void add_private_memory_block(void* addr, std::size_t size);

/// Revokes a previous annotation; the range becomes shared again.
void remove_private_memory_block(void* addr, std::size_t size);

}  // namespace cstm
