// Runtime configuration: which barrier preset runs, which allocation-log
// data structure backs the heap check, and whether commits are durable.
// The named presets correspond exactly to the configurations the paper
// evaluates in Figures 9-11 and Tables 1-2; conflicts are always resolved
// by the paper's policy (abort self, exponential backoff before retry).
#pragma once

#include <cstdint>

#include "capture/alloc_log.hpp"

namespace cstm {

/// The barrier configuration, one value per preset the paper measures.
/// BarrierPlan::compile maps each value to specialized per-direction paths.
enum class Barriers : std::uint8_t {
  kFull = 0,      // no capture checks: every access takes the full barrier
  kStatic,        // compiler capture analysis (Section 3.2): Site::verdict
  kRuntimeRW,     // runtime stack + heap + private checks, reads and writes
  kRuntimeW,      // the same checks in write barriers only
  kRuntimeHeapW,  // runtime heap check in write barriers only (Fig. 11(b))
  kCounting,      // Fig. 8: classify every access, then the full barrier
};

/// True for the presets whose capture checks consult the allocation log,
/// i.e. the only ones TxConfig::alloc_log configures.
constexpr bool checks_alloc_log(Barriers b) {
  return b == Barriers::kRuntimeRW || b == Barriers::kRuntimeW ||
         b == Barriers::kRuntimeHeapW;
}

struct TxConfig {
  Barriers barriers = Barriers::kFull;

  AllocLogKind alloc_log = AllocLogKind::kTree;

  // Durable mode (ROADMAP direction 2): non-captured stores are redo-logged
  // and commit runs the flush/fence protocol in src/durable/. Compiled into
  // BarrierPlan::durable — zero per-access branches when off, one branch in
  // the outlined full-write slow path when on. Orthogonal to the barrier
  // presets.
  bool durable = false;

  /// Same barrier configuration, with durability on. The differential
  /// suite checks that durability never changes committed state.
  constexpr TxConfig with_durable() const {
    TxConfig c = *this;
    c.durable = true;
    return c;
  }
  // -- Presets matching the paper's measured configurations -----------------

  /// No optimization applied.
  static constexpr TxConfig baseline() { return TxConfig{}; }

  /// Runtime checks for tx-local stack and heap in read AND write barriers.
  static constexpr TxConfig runtime_rw(AllocLogKind k = AllocLogKind::kTree) {
    return TxConfig{Barriers::kRuntimeRW, k};
  }

  /// Runtime checks for tx-local stack and heap in write barriers only.
  static constexpr TxConfig runtime_w(AllocLogKind k = AllocLogKind::kTree) {
    return TxConfig{Barriers::kRuntimeW, k};
  }

  /// Runtime checks for tx-local heap only, write barriers only (the
  /// configuration of Figure 11(b)).
  static constexpr TxConfig runtime_heap_w(AllocLogKind k = AllocLogKind::kTree) {
    return TxConfig{Barriers::kRuntimeHeapW, k};
  }

  /// Compiler capture analysis: statically elided barriers, no runtime cost.
  static constexpr TxConfig compiler() { return TxConfig{Barriers::kStatic}; }

  /// Durable mode with full runtime capture checks: the configuration
  /// where capture elides both STM barriers AND redo-log flushes (the
  /// durable quickstart preset; see docs/ARCHITECTURE.md).
  static constexpr TxConfig durable_rw(AllocLogKind k = AllocLogKind::kTree) {
    return runtime_rw(k).with_durable();
  }

  /// Durable mode with no capture checks: every instrumented store is
  /// redo-logged and flushed. The comparison baseline for
  /// flushes_elided_percent().
  static constexpr TxConfig durable_baseline() {
    return baseline().with_durable();
  }

  /// Fig. 8 barrier-breakdown measurement (always classifies with the
  /// precise tree log, whatever alloc_log says).
  static constexpr TxConfig counting() { return TxConfig{Barriers::kCounting}; }
};

/// Installs the configuration picked up by transactions at begin. Threads
/// observe the change on their next top-level transaction.
void set_global_config(const TxConfig& cfg);
TxConfig global_config();

}  // namespace cstm
