#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>

#include "durable/durable_heap.hpp"
#include "stamp/app.hpp"

namespace perfbench {

using cstm::TxConfig;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"stamp-capture-1t", 1, TxConfig::runtime_rw(),
       {"bayes", "genome", "intruder", "yada", "vacation-low"}, false, 4.0},
      {"stamp-contended-4t", 4, TxConfig::compiler(),
       {"kmeans-high", "kmeans-low", "ssca2", "labyrinth", "vacation-high"},
       false, 8.0},
      {"stream-durable-2t", 2, TxConfig::durable_rw(), {"vacation-low"}, true,
       8.0},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Work work_of(const cstm::TxStats& s) {
  Work w;
  w.commits = s.commits;
  w.reads = s.reads;
  w.writes = s.writes;
  w.elided_stack = s.read_elided_stack + s.write_elided_stack;
  w.elided_heap = s.read_elided_heap + s.write_elided_heap;
  w.elided_private = s.read_elided_private + s.write_elided_private;
  w.elided_static = s.read_elided_static + s.write_elided_static;
  w.tx_allocs = s.tx_allocs;
  return w;
}

namespace {

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

std::string describe(std::exception_ptr e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

cstm::stamp::AppParams params_of(const Workload& w, std::uint64_t seed) {
  cstm::stamp::AppParams p;
  p.threads = w.threads;
  p.seed = seed;
  p.scale = w.scale;
  return p;
}

/// Lanes for the main thread and each worker, created before any worker
/// starts (Tracer::lane is main-thread only).
std::vector<Lane*> lanes_for(Tracer* tracer, int threads) {
  std::vector<Lane*> lanes(static_cast<std::size_t>(threads) + 1, nullptr);
  if (tracer == nullptr) return lanes;
  for (int t = 0; t <= threads; ++t) lanes[static_cast<std::size_t>(t)] = &tracer->lane(t);
  return lanes;
}

AppRun run_stamp_app(const Workload& w, const char* name,
                     const PassOptions& opt, PassResult& pr) {
  AppRun r;
  r.app = name;
  const int n = w.threads;
  Tracer* tracer = opt.tracer;
  const std::vector<Lane*> lanes = lanes_for(tracer, n);
  ScopedSpan app_span(tracer, lanes[0], "stamp", "app", opt.parent, name);

  std::unique_ptr<cstm::stamp::App> app = cstm::stamp::make_app(name);
  {
    ScopedSpan s(tracer, lanes[0], "stamp", "App::setup", app_span.id(), name);
    const std::int64_t t0 = now_ns();
    app->setup(params_of(w, opt.seed));
    r.setup_s = seconds_between(t0, now_ns());
  }
  cstm::stats_reset();

  std::vector<std::int64_t> start(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> end(static_cast<std::size_t>(n), 0);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::barrier sync(n + 1);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int tid = 0; tid < n; ++tid) {
    threads.emplace_back([&, tid] {
      const auto i = static_cast<std::size_t>(tid);
      sync.arrive_and_wait();
      ScopedSpan s(tracer, lanes[i + 1], "stamp", "App::worker", app_span.id(),
                   name);
      start[i] = now_ns();
      try {
        app->worker(tid);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      end[i] = now_ns();
    });
  }
  sync.arrive_and_wait();
  for (auto& t : threads) t.join();
  r.stats = cstm::stats_snapshot();  // only after every worker has joined

  double slowest = 0;
  double fastest = 1e300;
  for (int tid = 0; tid < n; ++tid) {
    const auto i = static_cast<std::size_t>(tid);
    if (errors[i]) {
      pr.ok = false;
      pr.errors.push_back(std::string(name) + ": worker " +
                          std::to_string(tid) + " threw: " + describe(errors[i]));
    }
    const double span = seconds_between(start[i], end[i]);
    slowest = std::max(slowest, span);
    fastest = std::min(fastest, span);
  }
  r.slowest_s = slowest;
  r.fastest_s = fastest;
  r.run_s = seconds_between(*std::min_element(start.begin(), start.end()),
                            *std::max_element(end.begin(), end.end()));
  {
    ScopedSpan s(tracer, lanes[0], "stamp", "App::verify", app_span.id(), name);
    r.verified = app->verify();
  }
  if (!r.verified) {
    pr.ok = false;
    pr.errors.push_back(std::string(name) + ": verify() failed");
  }
  return r;
}

// Request ids in the trace: thread t's i-th request is t * kReqIdStride + i.
constexpr std::int64_t kReqIdStride = 1000000000;

struct Inflight {
  cstm::txbatch::Completion done;
  std::int64_t enqueue_ns;
};

/// One stream thread's share of a pass.
struct StreamThread {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t requestgen_ns = 0;
  std::uint64_t generated = 0;
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;
  std::uint64_t undecided = 0;
  cstm::txbatch::BatcherStats batcher;
  std::vector<double> latency_us;
  std::vector<double> flush_us;
  std::vector<double> queue_wait_us;
  std::exception_ptr error;
};

void stream_thread(cstm::stamp::App& app, int tid, std::barrier<>& sync,
                   Tracer* tracer, Lane* lane, std::uint64_t parent,
                   StreamThread& out) {
  const bool traced = tracer != nullptr;
  std::unique_ptr<cstm::stamp::RequestSource> source =
      app.open_request_stream(tid);
  cstm::txbatch::BatcherOptions bopt;
  bopt.max_batch = 16;
  cstm::txbatch::Batcher batcher(bopt);
  std::vector<Inflight> inflight;
  inflight.reserve(4 * bopt.max_batch);
  out.latency_us.reserve(1 << 16);

  // Moves every decided Completion out of `inflight`, timing it against
  // `seen` (when the benchmark observed it) and `flush_start` (when the
  // call that ran it began).
  auto settle = [&](std::int64_t seen, std::int64_t flush_start) {
    std::size_t keep = 0;
    for (Inflight& f : inflight) {
      const cstm::txbatch::OpState st = f.done.state();
      if (st == cstm::txbatch::OpState::kPending) {
        inflight[keep++] = std::move(f);
        continue;
      }
      if (st == cstm::txbatch::OpState::kCommitted) {
        ++out.committed;
      } else {
        ++out.failed;
      }
      out.latency_us.push_back(static_cast<double>(seen - f.enqueue_ns) / 1e3);
      if (traced) {
        out.queue_wait_us.push_back(
            static_cast<double>(std::max<std::int64_t>(0, flush_start - f.enqueue_ns)) /
            1e3);
      }
    }
    inflight.resize(keep);
  };

  sync.arrive_and_wait();
  if (source == nullptr) {
    out.error = std::make_exception_ptr(
        std::runtime_error(std::string(app.name()) + " has no request stream"));
    return;
  }
  ScopedSpan thread_span(tracer, lane, "txbatch", "stream.thread", parent);
  out.start = now_ns();
  try {
    for (std::int64_t i = 0;; ++i) {
      const std::int64_t g0 = traced ? now_ns() : 0;
      std::function<void(cstm::Tx&)> fn = source->next();
      if (traced) out.requestgen_ns += now_ns() - g0;
      if (!fn) break;
      ++out.generated;
      const std::size_t pending_before = batcher.pending();
      const std::uint64_t batches_before = batcher.stats().batches;
      const std::int64_t t_enq = now_ns();
      cstm::txbatch::Completion done = batcher.enqueue(std::move(fn));
      const std::int64_t t_ret = now_ns();
      inflight.push_back(Inflight{std::move(done), t_enq});
      const bool flushed = batcher.pending() != pending_before + 1 ||
                           batcher.stats().batches != batches_before;
      if (traced) {
        Span s;
        s.name = flushed ? "Batcher::enqueue+flush" : "Batcher::enqueue";
        s.layer = "txbatch";
        s.start_ns = t_enq;
        s.end_ns = t_ret;
        s.id = tracer->next_id();
        s.parent = thread_span.id();
        s.req = tid * kReqIdStride + i;
        lane->push(s);
        if (flushed) out.flush_us.push_back(static_cast<double>(t_ret - t_enq) / 1e3);
      }
      settle(t_ret, t_enq);
    }
    const std::int64_t t_drain = now_ns();
    {
      ScopedSpan s(tracer, lane, "txbatch", "Batcher::drain", thread_span.id());
      batcher.drain();
    }
    const std::int64_t t_drained = now_ns();
    if (traced) out.flush_us.push_back(static_cast<double>(t_drained - t_drain) / 1e3);
    settle(t_drained, t_drain);
    out.end = t_drained;
  } catch (...) {
    out.error = std::current_exception();
    out.end = now_ns();
  }
  out.undecided = inflight.size();
  out.batcher = batcher.stats();
}

void run_stream(const Workload& w, const PassOptions& opt, PassResult& pr) {
  const char* name = w.apps.front();
  const int n = w.threads;
  Tracer* tracer = opt.tracer;
  const std::vector<Lane*> lanes = lanes_for(tracer, n);
  ScopedSpan app_span(tracer, lanes[0], "stamp", "app", opt.parent, name);
  AppRun r;
  r.app = name;

  std::unique_ptr<cstm::stamp::App> app = cstm::stamp::make_app(name);
  {
    ScopedSpan s(tracer, lanes[0], "stamp", "App::setup", app_span.id(), name);
    const std::int64_t t0 = now_ns();
    app->setup(params_of(w, opt.seed));
    r.setup_s = seconds_between(t0, now_ns());
  }

  const std::string heap_path = opt.work_dir + "/perfbench-" +
                                std::to_string(::getpid()) + ".heap";
  std::remove(heap_path.c_str());
  cstm::dur::DurableHeap heap;
  bool opened = false;
  {
    ScopedSpan s(tracer, lanes[0], "durable", "DurableHeap::open",
                 app_span.id());
    const std::int64_t t0 = now_ns();
    opened = heap.open(heap_path);
    pr.stream.open_s = seconds_between(t0, now_ns());
  }
  pr.setup_s += r.setup_s + pr.stream.open_s;
  if (!opened) {
    pr.ok = false;
    pr.errors.push_back("cannot open durable heap " + heap_path);
    pr.apps.push_back(r);
    return;
  }
  heap.activate();
  cstm::stats_reset();

  std::vector<StreamThread> out(static_cast<std::size_t>(n));
  std::barrier sync(n + 1);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int tid = 0; tid < n; ++tid) {
    const auto i = static_cast<std::size_t>(tid);
    threads.emplace_back([&, tid, i] {
      stream_thread(*app, tid, sync, tracer, lanes[i + 1], app_span.id(),
                    out[i]);
    });
  }
  sync.arrive_and_wait();
  for (auto& t : threads) t.join();
  r.stats = cstm::stats_snapshot();  // only after every worker has joined
  {
    ScopedSpan s(tracer, lanes[0], "stamp", "App::verify", app_span.id(), name);
    r.verified = app->verify();
  }
  heap.deactivate();
  heap.close();
  std::remove(heap_path.c_str());

  StreamRun& sr = pr.stream;
  std::int64_t first_start = out.front().start;
  std::int64_t last_end = out.front().end;
  r.fastest_s = 1e300;
  for (int tid = 0; tid < n; ++tid) {
    StreamThread& t = out[static_cast<std::size_t>(tid)];
    if (t.error) {
      pr.ok = false;
      pr.errors.push_back(std::string(name) + ": stream thread " +
                          std::to_string(tid) + " failed: " + describe(t.error));
    }
    first_start = std::min(first_start, t.start);
    last_end = std::max(last_end, t.end);
    const double span = seconds_between(t.start, t.end);
    r.slowest_s = std::max(r.slowest_s, span);
    r.fastest_s = std::min(r.fastest_s, span);
    sr.generated += t.generated;
    sr.committed += t.committed;
    sr.failed += t.failed;
    sr.undecided += t.undecided;
    sr.batcher.batches += t.batcher.batches;
    sr.batcher.ops_enqueued += t.batcher.ops_enqueued;
    sr.batcher.ops_committed += t.batcher.ops_committed;
    sr.batcher.ops_failed += t.batcher.ops_failed;
    sr.batcher.ops_requeued += t.batcher.ops_requeued;
    sr.requestgen_s += static_cast<double>(t.requestgen_ns) / 1e9;
    sr.latency_us.insert(sr.latency_us.end(), t.latency_us.begin(),
                         t.latency_us.end());
    sr.flush_us.insert(sr.flush_us.end(), t.flush_us.begin(), t.flush_us.end());
    sr.queue_wait_us.insert(sr.queue_wait_us.end(), t.queue_wait_us.begin(),
                            t.queue_wait_us.end());
  }
  r.run_s = seconds_between(first_start, last_end);

  // Completion accounting: every request decided, none lost or invented.
  if (!r.verified) {
    pr.ok = false;
    pr.errors.push_back(std::string(name) + ": verify() failed");
  }
  if (sr.undecided != 0) {
    pr.ok = false;
    pr.errors.push_back(std::to_string(sr.undecided) +
                        " Completions still pending after drain()");
  }
  if (sr.committed + sr.failed != sr.generated ||
      sr.batcher.ops_enqueued != sr.generated ||
      sr.batcher.ops_committed != sr.committed ||
      sr.batcher.ops_failed != sr.failed) {
    pr.ok = false;
    pr.errors.push_back(
        "stream accounting: generated " + std::to_string(sr.generated) +
        ", enqueued " + std::to_string(sr.batcher.ops_enqueued) + ", committed " +
        std::to_string(sr.committed) + ", failed " + std::to_string(sr.failed) +
        ", batcher committed " + std::to_string(sr.batcher.ops_committed) +
        ", batcher failed " + std::to_string(sr.batcher.ops_failed));
  }
  pr.apps.push_back(r);
}

}  // namespace

PassResult run_pass(const Workload& w, const PassOptions& opt) {
  PassResult pr;
  Lane* main_lane = opt.tracer != nullptr ? &opt.tracer->lane(0) : nullptr;
  ScopedSpan pass_span(opt.tracer, main_lane, "bench", "pass", opt.parent,
                       w.name);
  PassOptions inner = opt;
  inner.parent = pass_span.id();
  if (w.stream) {
    run_stream(w, inner, pr);
  } else {
    for (const char* name : w.apps) {
      AppRun r = run_stamp_app(w, name, inner, pr);
      pr.setup_s += r.setup_s;
      pr.apps.push_back(r);
    }
  }
  for (const AppRun& r : pr.apps) {
    pr.run_s += r.run_s;
    pr.stats.add(r.stats);
  }
  return pr;
}

}  // namespace perfbench
