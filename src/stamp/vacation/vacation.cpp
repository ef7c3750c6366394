#include "stamp/vacation/vacation.hpp"

#include <mutex>

#include "capture/private_registry.hpp"
#include "stm/stm.hpp"
#include "support/random.hpp"

namespace cstm::stamp {

namespace {

constexpr std::uint64_t pack_booking(std::uint64_t type, std::uint64_t id,
                                     std::uint64_t price) {
  return (type << 56) | (id << 24) | price;
}
constexpr std::uint64_t booking_price(std::uint64_t b) {
  return b & 0xffffffu;
}

/// Per-worker context: the thread-local query vector of the paper's
/// Figure 1(b), registered with addPrivateMemoryBlock so the runtime can
/// elide barriers on it when annotation checks are enabled.
class WorkerCtxImpl {
 public:
  static constexpr std::size_t kMaxQueries = 8;
  explicit WorkerCtxImpl(std::uint64_t seed) : rng(seed) {
    add_private_memory_block(query_ids.data(), query_ids.size_bytes());
  }
  ~WorkerCtxImpl() {
    remove_private_memory_block(query_ids.data(), query_ids.size_bytes());
  }

  Xoshiro256 rng;
  tvar_array<std::uint64_t, kMaxQueries, vacation_sites::kQueryVec> query_ids;
};

}  // namespace

class WorkerCtx : public WorkerCtxImpl {
 public:
  using WorkerCtxImpl::WorkerCtxImpl;
};

VacationApp::~VacationApp() {
  auto free_table = [](Table& t) {
    t.for_each_sequential([](std::uint64_t, Reservation* r) {
      Pool::deallocate(r);
    });
  };
  free_table(cars_);
  free_table(rooms_);
  free_table(flights_);
  for (Customer* c : all_customers_) {
    delete c->bookings;
    Pool::deallocate(c);
  }
}

void VacationApp::setup(const AppParams& params) {
  params_ = params;
  relations_ = static_cast<std::uint64_t>(2048 * params.scale);
  if (relations_ < 64) relations_ = 64;
  total_tasks_ = static_cast<std::uint64_t>(8192 * params.scale);
  if (total_tasks_ < 64) total_tasks_ = 64;
  queries_per_task_ = high_ ? 4 : 2;
  user_percent_ = high_ ? 90 : 98;
  const int range_percent = high_ ? 60 : 90;
  query_range_ = relations_ * static_cast<std::uint64_t>(range_percent) / 100;

  Xoshiro256 rng(params.seed);
  // Ids ascend, so each map is built by appending to its right spine.
  Table::AscendingBuilder tables[] = {Table::AscendingBuilder(cars_),
                                      Table::AscendingBuilder(rooms_),
                                      Table::AscendingBuilder(flights_)};
  TxMap<std::uint64_t, Customer*>::AscendingBuilder customers(customers_);
  for (std::uint64_t id = 0; id < relations_; ++id) {
    for (Kind k : {kCar, kRoom, kFlight}) {
      auto* r = static_cast<Reservation*>(Pool::local().allocate(sizeof(Reservation)));
      r->num_used.poke(0);
      r->num_total.poke(rng.between(1, 5));
      r->num_free.poke(r->num_total.peek());
      r->price.poke(rng.between(100, 999));
      tables[k].append(id, r);
    }
    auto* c = static_cast<Customer*>(Pool::local().allocate(sizeof(Customer)));
    c->id = id;
    c->bill.poke(0);
    c->bookings = new TxList<std::uint64_t>(/*allow_duplicates=*/true);
    customers.append(id, c);
    all_customers_.push_back(c);
  }
}

void VacationApp::task_make_reservation(Tx& tx, WorkerCtx& ctx) {
  task_make_reservation(tx, ctx, ctx.rng.below(query_range_));
}

void VacationApp::task_make_reservation(Tx& tx, WorkerCtx& ctx,
                                        std::uint64_t customer_id) {
  // Address-taken locals inside the atomic block: a naive compiler
  // instruments every access to them (they escape into helper calls in the
  // original C), producing exactly the captured-stack barriers of Fig. 8.
  // The compiler capture analysis proves them transaction-local stack.
  tvar_array<std::uint64_t, 3, kAutoStackSite> chosen_id;
  tvar_array<std::uint64_t, 3, kAutoStackSite> found;
  tvar_array<std::uint64_t, 3, kAutoStackSite> best_price;
  for (int k = 0; k < 3; ++k) {
    // Populate the thread-local query vector inside the transaction
    // (TMpopulateQueryVectors in Figure 1(b)).
    const int nq = queries_per_task_;
    for (int q = 0; q < nq; ++q) {
      ctx.query_ids.set(tx, static_cast<std::size_t>(q),
                        ctx.rng.below(query_range_));
    }
    for (int q = 0; q < nq; ++q) {
      const std::uint64_t id = ctx.query_ids.get(tx, static_cast<std::size_t>(q));
      Reservation* r = nullptr;
      if (!table_of(static_cast<Kind>(k)).find(tx, id, &r)) continue;
      const std::uint64_t free = r->num_free.get(tx);
      const std::uint64_t price = r->price.get(tx);
      if (free > 0 && (found.get(tx, k) == 0 || price > best_price.get(tx, k))) {
        found.set(tx, k, 1);
        best_price.set(tx, k, price);
        chosen_id.set(tx, k, id);
      }
    }
  }
  Customer* customer = nullptr;
  if (!customers_.find(tx, customer_id, &customer)) return;  // deleted
  for (int k = 0; k < 3; ++k) {
    if (found.get(tx, k) == 0) continue;
    const std::uint64_t id = chosen_id.get(tx, k);
    const std::uint64_t price = best_price.get(tx, k);
    Reservation* r = nullptr;
    if (!table_of(static_cast<Kind>(k)).find(tx, id, &r)) continue;
    const std::uint64_t free = r->num_free.get(tx);
    if (free == 0) continue;
    r->num_free.set(tx, free - 1);
    r->num_used.add(tx, 1);
    customer->bookings->insert(
        tx, pack_booking(static_cast<std::uint64_t>(k), id, price));
    customer->bill.add(tx, price);
  }
}

void VacationApp::task_delete_customer(Tx& tx, WorkerCtx& ctx) {
  task_delete_customer(tx, ctx.rng.below(query_range_));
}

void VacationApp::task_delete_customer(Tx& tx, std::uint64_t customer_id) {
  Customer* customer = nullptr;
  if (!customers_.find(tx, customer_id, &customer)) return;
  // Refund every booking (Figure 1(a)-style iteration: the iterator lives
  // on the transaction-local stack).
  typename TxList<std::uint64_t>::Iterator it;
  customer->bookings->iter_reset(tx, &it);
  while (customer->bookings->iter_has_next(tx, &it)) {
    const std::uint64_t booking = customer->bookings->iter_next(tx, &it);
    const auto type = static_cast<Kind>(booking >> 56);
    const std::uint64_t id = (booking >> 24) & 0xffffffffu;
    Reservation* r = nullptr;
    if (table_of(type).find(tx, id, &r)) {
      r->num_free.add(tx, 1);
      r->num_used.set(tx, r->num_used.get(tx) - 1);
    }
    customer->bill.add(tx, std::uint64_t{0} - booking_price(booking));
  }
  customer->bookings->clear(tx);
}

void VacationApp::task_update_tables(Tx& tx, WorkerCtx& ctx, bool add) {
  const int nq = queries_per_task_;
  for (int q = 0; q < nq; ++q) {
    const auto kind = static_cast<Kind>(ctx.rng.below(3));
    const std::uint64_t id = ctx.rng.below(query_range_);
    Reservation* r = nullptr;
    if (add) {
      if (table_of(kind).find(tx, id, &r)) {
        // Grow existing inventory.
        r->num_total.add(tx, 1);
        r->num_free.add(tx, 1);
      } else {
        // Fresh reservation record allocated inside the transaction: its
        // initialization is captured memory (tfield::init).
        r = tx_new<Reservation>(tx);
        r->num_used.init(tx, 0);
        r->num_free.init(tx, 1);
        r->num_total.init(tx, 1);
        r->price.init(tx, ctx.rng.between(100, 999));
        table_of(kind).insert(tx, id, r);
      }
    } else {
      if (table_of(kind).find(tx, id, &r)) {
        const std::uint64_t total = r->num_total.get(tx);
        const std::uint64_t free = r->num_free.get(tx);
        if (free == total && total > 0) {
          // Retire one unit; drop the record when empty.
          r->num_total.set(tx, total - 1);
          r->num_free.set(tx, free - 1);
          if (total - 1 == 0) {
            table_of(kind).erase(tx, id);
            tx_delete(tx, r);
          }
        }
      }
    }
  }
}

void VacationApp::worker(int tid) {
  WorkerCtx ctx(params_.seed * 7919 + static_cast<std::uint64_t>(tid));
  // Fixed total work split across threads (as in STAMP's -t tasks).
  const auto threads = static_cast<std::uint64_t>(params_.threads);
  const std::uint64_t tasks =
      total_tasks_ / threads +
      (static_cast<std::uint64_t>(tid) < total_tasks_ % threads ? 1 : 0);
  for (std::uint64_t t = 0; t < tasks; ++t) {
    const std::uint64_t dice = ctx.rng.below(100);
    if (dice < static_cast<std::uint64_t>(user_percent_)) {
      atomic([&](Tx& tx) { task_make_reservation(tx, ctx); });
    } else if (dice % 2 == 0) {
      atomic([&](Tx& tx) { task_delete_customer(tx, ctx); });
    } else {
      atomic([&](Tx& tx) { task_update_tables(tx, ctx, ctx.rng.below(2) == 0); });
    }
  }
}

/// Request-stream adapter (txbatch `--batch` mode). Emits the worker()'s
/// task mix one closure at a time, structured as customer SESSIONS: one
/// customer issues a run of kSessionLen requests (mostly reservations,
/// occasional table updates) and the session finale deletes the customer,
/// refunding everything booked during the session. Sessions are what make
/// merging pay: a reservation inserts nodes into the customer's booking
/// list, so when a batch spans the session, every later request's list
/// traversal — and the finale's full refund walk — reads memory ALLOCATED
/// EARLIER IN THE SAME MERGED TRANSACTION, i.e. captured memory. At batch 1
/// those same nodes were committed by earlier transactions and pay full
/// barriers.
///
/// Two RNGs keep the stream identical across batch sizes: the GENERATION
/// rng decides each task's type and session customer when next() is
/// called, while every draw a task makes while running comes from the
/// execution WorkerCtx rng — and since the Batcher executes closures
/// strictly in enqueue order, those draws land in the same order whether
/// requests run one-per-transaction or merged 64 at a time.
class VacationRequestSource : public RequestSource {
 public:
  VacationRequestSource(VacationApp& app, int tid)
      : app_(app),
        ctx_(app.params_.seed * 7919 + static_cast<std::uint64_t>(tid)),
        gen_rng_(app.params_.seed * 104729 + static_cast<std::uint64_t>(tid)) {
    const auto threads = static_cast<std::uint64_t>(app.params_.threads);
    remaining_ = app.total_tasks_ / threads +
                 (static_cast<std::uint64_t>(tid) < app.total_tasks_ % threads
                      ? 1
                      : 0);
  }

  std::function<void(Tx&)> next() override {
    if (remaining_ == 0) return {};
    --remaining_;
    if (session_left_ == 0) {
      session_customer_ = gen_rng_.below(app_.query_range_);
      session_left_ = kSessionLen;
    }
    --session_left_;
    const std::uint64_t dice = gen_rng_.below(100);
    const std::uint64_t customer = session_customer_;
    if (session_left_ == 0) {
      // Session finale: the customer checks out, refunding every booking
      // made during the session (a walk over the session's allocations).
      return [this, customer](Tx& tx) {
        app_.task_delete_customer(tx, customer);
      };
    }
    if (dice < static_cast<std::uint64_t>(app_.user_percent_)) {
      return [this, customer](Tx& tx) {
        app_.task_make_reservation(tx, ctx_, customer);
      };
    }
    return [this](Tx& tx) {
      app_.task_update_tables(tx, ctx_, ctx_.rng.below(2) == 0);
    };
  }

 private:
  // A session long enough that merge factors below 64 only span part of
  // it, so the captured fraction keeps climbing across the whole sweep.
  static constexpr std::uint64_t kSessionLen = 64;

  VacationApp& app_;
  WorkerCtx ctx_;
  Xoshiro256 gen_rng_;
  std::uint64_t remaining_ = 0;
  std::uint64_t session_customer_ = 0;
  std::uint64_t session_left_ = 0;
};

std::unique_ptr<RequestSource> VacationApp::open_request_stream(int tid) {
  return std::make_unique<VacationRequestSource>(*this, tid);
}

bool VacationApp::verify() {
  bool ok = true;
  auto check_table = [&](Table& t) {
    t.for_each_sequential([&](std::uint64_t, Reservation* r) {
      if (r->num_used.peek() + r->num_free.peek() != r->num_total.peek()) {
        ok = false;
      }
    });
  };
  check_table(cars_);
  check_table(rooms_);
  check_table(flights_);
  return ok;
}

}  // namespace cstm::stamp
