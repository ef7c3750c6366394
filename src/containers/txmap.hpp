// Transactional ordered map (STAMP lib/rbtree equivalent).
//
// Implemented as a treap: rotations are local and parent-pointer-free,
// which keeps the transactional implementation auditable while preserving
// the balanced-BST access profile the paper's benchmarks exercise
// (traversal reads are shared/manual; node initialization after tx_new is
// captured; structural link writes are shared/manual). A node's priority
// is a fixed 64-bit mix of its key's bytes, which keeps balance independent
// of insertion order (vacation inserts sequential ids at setup) while the
// treap's shape depends only on the key set — not on the inserting thread,
// the insertion history or the process. All barrier + Site decisions live
// in the tfield/tvar types of Node and the map header.
//
// Because the shape is a function of the key set, AscendingBuilder can build
// it outside any transaction (setup code) from ascending keys in amortized
// O(1) per key, leaving memory bit-identical to the same insert() calls.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "generated/site_verdicts.hpp"
#include "stm/stm.hpp"
#include "support/random.hpp"

namespace cstm {

template <typename K, typename V, typename Compare = std::less<K>>
  requires TmValue<K> && TmValue<V>
class TxMap {
  struct Node;

 public:
  TxMap() = default;
  ~TxMap() { destroy(root_.peek()); }
  TxMap(const TxMap&) = delete;
  TxMap& operator=(const TxMap&) = delete;

  /// Inserts (k, v); returns false (no change) if the key exists.
  bool insert(Tx& tx, const K& k, const V& v) {
    bool inserted = false;
    Node* old_root = root_.get(tx);
    Node* new_root = insert_rec(tx, old_root, k, v, &inserted);
    if (new_root != old_root) root_.set(tx, new_root);
    if (inserted) size_.add(tx, 1);
    return inserted;
  }

  /// Inserts or overwrites.
  void put(Tx& tx, const K& k, const V& v) {
    if (Node* n = find_node(tx, k)) {
      n->value.set(tx, v);
      return;
    }
    insert(tx, k, v);
  }

  bool erase(Tx& tx, const K& k) {
    bool erased = false;
    Node* old_root = root_.get(tx);
    Node* new_root = erase_rec(tx, old_root, k, &erased);
    if (new_root != old_root) root_.set(tx, new_root);
    if (erased) size_.add(tx, static_cast<std::size_t>(-1));
    return erased;
  }

  bool find(Tx& tx, const K& k, V* out = nullptr) {
    if (Node* n = find_node(tx, k)) {
      if (out != nullptr) *out = n->value.get(tx);
      return true;
    }
    return false;
  }

  bool contains(Tx& tx, const K& k) { return find(tx, k, nullptr); }

  /// Greatest key <= k (floor query, used by reservation pricing sweeps).
  bool find_floor(Tx& tx, const K& k, K* key_out, V* val_out = nullptr) {
    Node* cur = root_.get(tx);
    Node* best = nullptr;
    while (cur != nullptr) {
      const K ck = cur->key.get(tx);
      if (cmp_(k, ck)) {
        cur = cur->left.get(tx);
      } else {
        best = cur;
        cur = cur->right.get(tx);
      }
    }
    if (best == nullptr) return false;
    if (key_out != nullptr) *key_out = best->key.get(tx);
    if (val_out != nullptr) *val_out = best->value.get(tx);
    return true;
  }

  std::size_t size(Tx& tx) { return size_.get(tx); }
  bool empty(Tx& tx) { return size(tx) == 0; }

  /// Sequential (non-transactional) equivalent of insert() for keys that
  /// arrive in strictly ascending order, each greater than every key the map
  /// already holds. It keeps the treap's right spine on a stack: insert()
  /// would put the new node right of the spine's last node and rotate it
  /// above every ancestor of strictly lower priority, so append() pops those
  /// (the popped chain becomes the new node's left subtree) and links the
  /// node under the remaining top. Each node is allocated inside append(),
  /// where insert() allocates it, so interleaved allocations keep their Pool
  /// addresses. The map must not change by other means while a builder is
  /// in use.
  class AscendingBuilder {
   public:
    explicit AscendingBuilder(TxMap& map) : map_(map) {
      for (Node* n = map.root_.peek(); n != nullptr; n = n->right.peek()) {
        spine_.push_back(n);
      }
    }

    void append(const K& k, const V& v) {
      assert(spine_.empty() || map_.cmp_(spine_.back()->key.peek(), k));
      Node* node = ::new (Pool::local().allocate(sizeof(Node))) Node;
      const std::uint64_t prio = priority_of(k);
      node->key.poke(k);
      node->value.poke(v);
      node->prio.poke(prio);
      Node* left = nullptr;
      while (!spine_.empty() && spine_.back()->prio.peek() < prio) {
        left = spine_.back();
        spine_.pop_back();
      }
      node->left.poke(left);
      node->right.poke(nullptr);
      if (spine_.empty()) {
        map_.root_.poke(node);
      } else {
        spine_.back()->right.poke(node);
      }
      spine_.push_back(node);
      map_.size_.poke(map_.size_.peek() + 1);
    }

   private:
    TxMap& map_;
    std::vector<Node*> spine_;  // root first, the largest key last
  };

  /// Sequential (non-transactional) in-order visit for verification code.
  template <typename F>
  void for_each_sequential(F&& f) const {
    visit(root_.peek(), f);
  }

 private:
  struct Node {
    tfield<K, map_sites::kKey> key;
    tfield<V, map_sites::kValue> value;
    tfield<std::uint64_t, map_sites::kPrio> prio;
    tfield<Node*, map_sites::kChild> left;
    tfield<Node*, map_sites::kChild> right;
  };

  static std::uint64_t priority_of(const K& k) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &k, sizeof(K));
    return SplitMix64(bits).next();
  }

  Node* find_node(Tx& tx, const K& k) {
    Node* cur = root_.get(tx);
    while (cur != nullptr) {
      const K ck = cur->key.get(tx);
      if (cmp_(k, ck)) {
        cur = cur->left.get(tx);
      } else if (cmp_(ck, k)) {
        cur = cur->right.get(tx);
      } else {
        return cur;
      }
    }
    return nullptr;
  }

  Node* insert_rec(Tx& tx, Node* n, const K& k, const V& v, bool* inserted) {
    if (n == nullptr) {
      Node* node = tx_new<Node>(tx);
      node->key.init(tx, k);
      node->value.init(tx, v);
      node->prio.init(tx, priority_of(k));
      node->left.init(tx, nullptr);
      node->right.init(tx, nullptr);
      *inserted = true;
      return node;
    }
    const K nk = n->key.get(tx);
    if (cmp_(k, nk)) {
      Node* old = n->left.get(tx);
      Node* child = insert_rec(tx, old, k, v, inserted);
      if (child != old) n->left.set(tx, child);
      if (*inserted && prio_of(tx, child) > prio_of(tx, n)) {
        return rotate_right(tx, n, child);
      }
    } else if (cmp_(nk, k)) {
      Node* old = n->right.get(tx);
      Node* child = insert_rec(tx, old, k, v, inserted);
      if (child != old) n->right.set(tx, child);
      if (*inserted && prio_of(tx, child) > prio_of(tx, n)) {
        return rotate_left(tx, n, child);
      }
    }
    return n;  // equal key: no change
  }

  Node* erase_rec(Tx& tx, Node* n, const K& k, bool* erased) {
    if (n == nullptr) return nullptr;
    const K nk = n->key.get(tx);
    if (cmp_(k, nk)) {
      Node* old = n->left.get(tx);
      Node* child = erase_rec(tx, old, k, erased);
      if (child != old) n->left.set(tx, child);
      return n;
    }
    if (cmp_(nk, k)) {
      Node* old = n->right.get(tx);
      Node* child = erase_rec(tx, old, k, erased);
      if (child != old) n->right.set(tx, child);
      return n;
    }
    *erased = true;
    return unlink(tx, n);
  }

  /// Rotates @p n to a leaf by priority, detaches and frees it; returns the
  /// subtree that replaces it.
  Node* unlink(Tx& tx, Node* n) {
    Node* l = n->left.get(tx);
    Node* r = n->right.get(tx);
    if (l == nullptr && r == nullptr) {
      tx_delete(tx, n);
      return nullptr;
    }
    if (l == nullptr) {
      tx_delete(tx, n);
      return r;
    }
    if (r == nullptr) {
      tx_delete(tx, n);
      return l;
    }
    if (prio_of(tx, l) > prio_of(tx, r)) {
      // Rotate right: l up, n descends into l's right subtree.
      n->left.set(tx, l->right.get(tx));
      Node* repl = unlink(tx, n);
      l->right.set(tx, repl);
      return l;
    }
    n->right.set(tx, r->left.get(tx));
    Node* repl = unlink(tx, n);
    r->left.set(tx, repl);
    return r;
  }

  std::uint64_t prio_of(Tx& tx, Node* n) { return n->prio.get(tx); }

  /// child == n->left, child's priority beats n's: child becomes the root.
  Node* rotate_right(Tx& tx, Node* n, Node* child) {
    n->left.set(tx, child->right.get(tx));
    child->right.set(tx, n);
    return child;
  }

  Node* rotate_left(Tx& tx, Node* n, Node* child) {
    n->right.set(tx, child->left.get(tx));
    child->left.set(tx, n);
    return child;
  }

  static void destroy(Node* n) {
    if (n == nullptr) return;
    destroy(n->left.peek());
    destroy(n->right.peek());
    Pool::deallocate(n);
  }

  template <typename F>
  static void visit(const Node* n, F&& f) {
    if (n == nullptr) return;
    visit(n->left.peek(), f);
    f(n->key.peek(), n->value.peek());
    visit(n->right.peek(), f);
  }

  tvar<Node*, map_sites::kRoot> root_{nullptr};
  tvar<std::size_t, map_sites::kSize> size_{0};
  [[no_unique_address]] Compare cmp_{};
};

}  // namespace cstm
