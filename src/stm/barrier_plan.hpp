// Barrier plans: the TxConfig compiled ONCE at transaction begin into a
// per-descriptor dispatch slot, so the barriers pay zero config branches
// and zero indirect calls per access.
//
// Every tm_read/tm_write would otherwise re-derive, per access, decisions
// that cannot change inside a transaction: which capture checks run and
// which allocation log answers the heap check. The plan hoists all of that
// to begin_top: each Barriers preset maps each barrier direction (read,
// write) to one of a small set of specialized fast paths (template
// instantiations in stm/barriers.hpp), and the allocator hooks are told
// which concrete log to feed.
#pragma once

#include <cstdint>

#include "stm/config.hpp"

namespace cstm {

/// Which membership structure the transaction's allocator hooks feed
/// (tx_malloc/tx_free insert/erase, nested-abort replay, end-of-tx reset).
/// kNone means no log is maintained at all — the satellite fix for paying
/// three log resets per transaction regardless of config.
enum class ActiveLog : std::uint8_t { kNone = 0, kTree, kArray, kFilter };

/// The specialized fast path one barrier direction dispatches to. The
/// Stack/Heap/Priv names spell out exactly which capture checks run, in
/// that order (the paper's Figure 2 ordering: cheapest first).
enum class BarrierPath : std::uint8_t {
  kFull = 0,            // no capture checks: straight to the full barrier
  kStatic,              // compiler elision only (Site::verdict)
  kStackHeapPrivTree,   // runtime_rw / runtime_w presets
  kStackHeapPrivArray,
  kStackHeapPrivFilter,
  kHeapTree,            // runtime_heap_w presets
  kHeapArray,
  kHeapFilter,
  kCounting,            // Fig. 8: classify precisely, then full barrier
};

struct BarrierPlan {
  BarrierPath read = BarrierPath::kFull;
  BarrierPath write = BarrierPath::kFull;
  ActiveLog log = ActiveLog::kNone;
  // Durable mode, resolved once at begin like everything else. Consulted
  // only inside the outlined full-write slow path (to append the redo
  // entry) and at commit_top — the inlined fast paths, including every
  // capture-elided store, never test it.
  bool durable = false;

  /// Resolves a TxConfig into its plan. Constexpr so preset→path mappings
  /// can be checked at compile time (see tests/test_stm_basic.cpp).
  static constexpr BarrierPlan compile(const TxConfig& cfg) {
    const AllocLogKind k = cfg.alloc_log;
    BarrierPlan p;
    p.durable = cfg.durable;
    if (checks_alloc_log(cfg.barriers)) p.log = to_active(k);
    switch (cfg.barriers) {
      case Barriers::kFull:
        break;
      case Barriers::kStatic:
        p.read = p.write = BarrierPath::kStatic;
        break;
      case Barriers::kRuntimeRW:
        p.read = p.write = with_log(BarrierPath::kStackHeapPrivTree, k);
        break;
      case Barriers::kRuntimeW:
        p.write = with_log(BarrierPath::kStackHeapPrivTree, k);
        break;
      case Barriers::kRuntimeHeapW:
        p.write = with_log(BarrierPath::kHeapTree, k);
        break;
      case Barriers::kCounting:
        p.read = p.write = BarrierPath::kCounting;
        p.log = ActiveLog::kTree;  // precise classification
        break;
    }
    return p;
  }

 private:
  // ActiveLog and the ×{tree,array,filter} BarrierPath families are laid
  // out in AllocLogKind order, so selecting the member is an add, not a
  // switch.
  static constexpr ActiveLog to_active(AllocLogKind k) {
    return static_cast<ActiveLog>(static_cast<int>(ActiveLog::kTree) +
                                  static_cast<int>(k));
  }
  static constexpr BarrierPath with_log(BarrierPath tree_member,
                                        AllocLogKind k) {
    return static_cast<BarrierPath>(static_cast<int>(tree_member) +
                                    static_cast<int>(k));
  }
};

}  // namespace cstm
