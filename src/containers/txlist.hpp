// Transactional sorted singly-linked list (STAMP lib/list equivalent).
//
// Every transactional access goes through a typed tfield/tvar accessor
// whose Site is bound at the field type, emulating naive compiler
// instrumentation with the capture metadata centralized per field:
//  * node fields are initialized with tfield::init after tx_new — original
//    STAMP used plain stores there (the compiler over-instruments them;
//    capture analysis elides them);
//  * link/traversal/size accessors carry manual=true Sites — STAMP's
//    TM_SHARED_*.
//  * iterator state is `manual=false, verdict=kStack` (proven by the
//    iter_loop kernel in src/txir/kernels.cpp); iterators MUST be declared
//    inside the atomic block (as in STAMP's Figure 1(a) usage) for that
//    verdict to be sound.
//
// bulk_insert_sequential builds a list outside any transaction (setup code)
// in O(n log n), leaving memory bit-identical to n insert() calls.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <numeric>
#include <span>
#include <vector>

#include "generated/site_verdicts.hpp"
#include "stm/stm.hpp"

namespace cstm {

template <typename T, typename Compare = std::less<T>>
  requires TmValue<T>
class TxList {
 public:
  struct Node {
    tfield<T, list_sites::kValue> value;
    tfield<Node*, list_sites::kNext> next;
  };

  struct Iterator {
    tfield<Node*, list_sites::kIter> cur{nullptr};
  };

  explicit TxList(bool allow_duplicates = false)
      : allow_duplicates_(allow_duplicates) {}

  ~TxList() {
    Node* n = head_.next.peek();
    while (n != nullptr) {
      Node* next = n->next.peek();
      Pool::deallocate(n);
      n = next;
    }
  }

  TxList(const TxList&) = delete;
  TxList& operator=(const TxList&) = delete;

  /// Inserts @p v keeping the list sorted. Returns false for a duplicate
  /// when duplicates are disallowed.
  bool insert(Tx& tx, const T& v) {
    Node* prev = &head_;
    Node* cur = prev->next.get(tx);
    while (cur != nullptr) {
      const T cv = cur->value.get(tx);
      if (!cmp_(cv, v)) {
        if (!cmp_(v, cv) && !allow_duplicates_) return false;  // equal
        break;
      }
      prev = cur;
      cur = cur->next.get(tx);
    }
    Node* node = tx_new<Node>(tx);
    // Initialization of freshly captured memory: over-instrumented by a
    // naive compiler, elidable by capture analysis.
    node->value.init(tx, v);
    node->next.init(tx, cur);
    prev->next.set(tx, node);
    size_.add(tx, 1);
    return true;
  }

  /// Sequential (non-transactional) equivalent of calling insert() for each
  /// of @p values in order on this list, which must be empty: the nodes are
  /// allocated in input order (the same Pool calls, hence the same
  /// addresses) and linked in value order, newest first among equivalent
  /// values — insert() links a value before the first element >= it. When
  /// duplicates are disallowed, a value equivalent to an earlier one is
  /// dropped without allocating, as insert() drops it. Returns the number of
  /// values inserted.
  std::size_t bulk_insert_sequential(std::span<const T> values) {
    assert(head_.next.peek() == nullptr);
    // List positions: by value, then by descending input index.
    std::vector<std::size_t> order(values.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (cmp_(values[a], values[b])) return true;
      return !cmp_(values[b], values[a]) && a > b;
    });
    if (!allow_duplicates_) {
      // insert() keeps the oldest of equivalent values: the last of a run.
      std::size_t kept = 0;
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (i + 1 == order.size() ||
            cmp_(values[order[i]], values[order[i + 1]])) {
          order[kept++] = order[i];
        }
      }
      order.resize(kept);
    }
    std::vector<bool> in_list(values.size(), false);
    for (std::size_t i : order) in_list[i] = true;
    std::vector<Node*> nodes(values.size(), nullptr);
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (!in_list[i]) continue;
      nodes[i] = ::new (Pool::local().allocate(sizeof(Node))) Node;
      nodes[i]->value.poke(values[i]);
    }
    Node* prev = &head_;
    for (std::size_t i : order) {
      prev->next.poke(nodes[i]);
      prev = nodes[i];
    }
    prev->next.poke(nullptr);
    size_.poke(order.size());
    return order.size();
  }

  /// Removes one occurrence of @p v. Returns false if absent.
  bool remove(Tx& tx, const T& v) {
    Node* prev = &head_;
    Node* cur = prev->next.get(tx);
    while (cur != nullptr) {
      const T cv = cur->value.get(tx);
      if (!cmp_(cv, v)) {
        if (cmp_(v, cv)) return false;  // passed the slot: absent
        prev->next.set(tx, cur->next.get(tx));
        size_.add(tx, static_cast<std::size_t>(-1));
        tx_delete(tx, cur);
        return true;
      }
      prev = cur;
      cur = cur->next.get(tx);
    }
    return false;
  }

  bool contains(Tx& tx, const T& v) {
    Node* cur = head_.next.get(tx);
    while (cur != nullptr) {
      const T cv = cur->value.get(tx);
      if (!cmp_(cv, v)) return !cmp_(v, cv);
      cur = cur->next.get(tx);
    }
    return false;
  }

  std::size_t size(Tx& tx) { return size_.get(tx); }
  bool empty(Tx& tx) { return size(tx) == 0; }

  /// Removes every element (transactionally).
  void clear(Tx& tx) {
    Node* cur = head_.next.get(tx);
    while (cur != nullptr) {
      Node* next = cur->next.get(tx);
      tx_delete(tx, cur);
      cur = next;
    }
    head_.next.set(tx, nullptr);
    size_.set(tx, 0);
  }

  // -- STAMP-style iteration (Figure 1(a)). The Iterator object must live
  //    inside the atomic block; its fields are then transaction-local.
  void iter_reset(Tx& tx, Iterator* it) { it->cur.set(tx, head_.next.get(tx)); }

  bool iter_has_next(Tx& tx, Iterator* it) {
    return it->cur.get(tx) != nullptr;
  }

  T iter_next(Tx& tx, Iterator* it) {
    Node* cur = it->cur.get(tx);
    const T v = cur->value.get(tx);
    it->cur.set(tx, cur->next.get(tx));
    return v;
  }

 private:
  Node head_{T{}, nullptr};
  tvar<std::size_t, list_sites::kSize> size_{0};
  bool allow_duplicates_;
  [[no_unique_address]] Compare cmp_{};
};

}  // namespace cstm
