#include "stamp/yada/yada.hpp"

#include "stm/stm.hpp"
#include "support/random.hpp"

namespace cstm::stamp {

YadaApp::~YadaApp() {
  if (mesh_) {
    mesh_->for_each_sequential(
        [](std::uint64_t, Element* e) { Pool::deallocate(e); });
  }
}

void YadaApp::setup(const AppParams& params) {
  params_ = params;
  initial_elements_ = static_cast<std::size_t>(4096 * params.scale);
  if (initial_elements_ < 128) initial_elements_ = 128;

  mesh_ = std::make_unique<TxMap<std::uint64_t, Element*>>();
  work_ = std::make_unique<TxHeap<std::uint64_t>>(initial_elements_);
  refinements_.poke(0);

  Xoshiro256 rng(params.seed);
  Tx& tx = current_tx();
  TxMap<std::uint64_t, Element*>::AscendingBuilder mesh(*mesh_);
  for (std::uint64_t id = 0; id < initial_elements_; ++id) {
    auto* e = static_cast<Element*>(Pool::local().allocate(sizeof(Element)));
    e->id.poke(id);
    e->quality.poke(rng.below(100));
    e->generation.poke(0);
    mesh.append(id, e);
    if (e->quality.peek() < kGoodQuality) work_->push(tx, id);
  }
  next_id_.poke(initial_elements_);
}

void YadaApp::worker(int tid) {
  Xoshiro256 rng(params_.seed * 131 + static_cast<std::uint64_t>(tid));
  for (;;) {
    bool done = false;
    atomic([&](Tx& tx) {
      done = false;
      std::uint64_t bad_id = 0;
      if (!work_->pop(tx, &bad_id)) {
        done = true;
        return;
      }
      Element* bad = nullptr;
      if (!mesh_->find(tx, bad_id, &bad)) return;  // refined away already
      const std::uint64_t quality = bad->quality.get(tx);
      if (quality >= kGoodQuality) return;  // repaired by a neighbor cavity
      const std::uint64_t generation = bad->generation.get(tx);

      // "Cavity": the bad element plus up to two id-adjacent neighbors.
      mesh_->erase(tx, bad_id);
      tx_delete(tx, bad);
      int cavity = 1;
      for (const std::uint64_t nb : {bad_id - 1, bad_id + 1}) {
        Element* n = nullptr;
        if (nb < initial_elements_ && mesh_->find(tx, nb, &n)) {
          mesh_->erase(tx, nb);
          tx_delete(tx, n);
          ++cavity;
        }
      }

      // Retriangulate: cavity+1 new elements, each strictly better than the
      // destroyed bad one (guarantees termination).
      for (int i = 0; i <= cavity; ++i) {
        const std::uint64_t id = next_id_.add(tx, 1);  // fetch-add: old value
        auto* e = tx_new<Element>(tx);
        e->id.init(tx, id);
        const std::uint64_t q = quality + 10 + rng.below(40);
        e->quality.init(tx, q);
        e->generation.init(tx, generation + 1);
        mesh_->insert(tx, id, e);
        if (q < kGoodQuality) work_->push(tx, id);
      }
      refinements_.add(tx, 1);
    });
    if (done) return;
  }
}

bool YadaApp::verify() {
  Tx& tx = current_tx();
  if (!work_->empty(tx)) return false;
  bool ok = true;
  mesh_->for_each_sequential([&](std::uint64_t id, Element* e) {
    if (e->quality.peek() < kGoodQuality || e->id.peek() != id) ok = false;
  });
  return ok && refinements_.peek() > 0;
}

}  // namespace cstm::stamp
