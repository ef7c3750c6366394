#include "stamp/app.hpp"

#include <atomic>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <thread>

#include "stamp/bayes/bayes.hpp"
#include "stamp/genome/genome.hpp"
#include "stamp/intruder/intruder.hpp"
#include "stamp/kmeans/kmeans.hpp"
#include "stamp/labyrinth/labyrinth.hpp"
#include "stamp/ssca2/ssca2.hpp"
#include "stamp/vacation/vacation.hpp"
#include "stamp/yada/yada.hpp"
#include "support/timer.hpp"
#include "txbatch/batcher.hpp"

namespace cstm::stamp {

std::unique_ptr<App> make_app(const std::string& name) {
  if (name == "bayes") return std::make_unique<BayesApp>();
  if (name == "genome") return std::make_unique<GenomeApp>();
  if (name == "intruder") return std::make_unique<IntruderApp>();
  if (name == "kmeans-high") return std::make_unique<KmeansApp>(true);
  if (name == "kmeans-low") return std::make_unique<KmeansApp>(false);
  if (name == "labyrinth") return std::make_unique<LabyrinthApp>();
  if (name == "ssca2") return std::make_unique<Ssca2App>();
  if (name == "vacation-high") return std::make_unique<VacationApp>(true);
  if (name == "vacation-low") return std::make_unique<VacationApp>(false);
  if (name == "yada") return std::make_unique<YadaApp>();
  throw std::out_of_range("unknown app: " + name);
}

const std::vector<std::string>& app_names() {
  static const std::vector<std::string> names = {
      "bayes",     "genome",       "intruder",     "kmeans-high",
      "kmeans-low", "labyrinth",   "ssca2",        "vacation-high",
      "vacation-low", "yada"};
  return names;
}

double run_app(App& app, const AppParams& params) {
  app.setup(params);
  const int n = params.threads;
  double elapsed = 0.0;
  Timer timer;
  std::barrier sync(n + 1);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int tid = 0; tid < n; ++tid) {
    threads.emplace_back([&, tid] {
      sync.arrive_and_wait();  // line up
      app.worker(tid);
      sync.arrive_and_wait();  // all done
    });
  }
  sync.arrive_and_wait();
  timer.reset();
  sync.arrive_and_wait();
  elapsed = timer.seconds();
  for (auto& t : threads) t.join();
  if (!app.verify()) {
    std::fprintf(stderr, "FATAL: %s failed verification (threads=%d)\n",
                 app.name(), n);
    std::abort();
  }
  return elapsed;
}

double run_app_stream(App& app, const AppParams& params, std::size_t batch,
                      std::uint64_t* requests_out) {
  app.setup(params);
  const int n = params.threads;
  std::atomic<std::uint64_t> total_requests{0};
  double elapsed = 0.0;
  Timer timer;
  std::barrier sync(n + 1);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  std::atomic<bool> not_batchable{false};
  std::atomic<bool> lost_ops{false};
  for (int tid = 0; tid < n; ++tid) {
    threads.emplace_back([&, tid] {
      std::unique_ptr<RequestSource> source = app.open_request_stream(tid);
      if (source == nullptr) {
        not_batchable.store(true);
        sync.arrive_and_wait();
        sync.arrive_and_wait();
        return;
      }
      txbatch::BatcherOptions opts;
      opts.max_batch = batch;
      txbatch::Batcher batcher(opts);
      sync.arrive_and_wait();  // line up
      std::uint64_t replayed = 0;
      for (std::function<void(Tx&)> fn = source->next(); fn;
           fn = source->next()) {
        batcher.enqueue(std::move(fn));
        ++replayed;
      }
      batcher.drain();
      // Exactly once: drain decided every op it was given, none twice.
      const txbatch::BatcherStats& bs = batcher.stats();
      if (batcher.pending() != 0 ||
          bs.ops_committed + bs.ops_failed != bs.ops_enqueued) {
        std::fprintf(stderr,
                     "FATAL: %s thread %d: %llu ops enqueued, %llu committed, "
                     "%llu failed, %zu pending after drain (batch=%zu)\n",
                     app.name(), tid,
                     static_cast<unsigned long long>(bs.ops_enqueued),
                     static_cast<unsigned long long>(bs.ops_committed),
                     static_cast<unsigned long long>(bs.ops_failed),
                     batcher.pending(), batch);
        lost_ops.store(true);
      }
      total_requests.fetch_add(replayed);
      sync.arrive_and_wait();  // all done
    });
  }
  sync.arrive_and_wait();
  timer.reset();
  sync.arrive_and_wait();
  elapsed = timer.seconds();
  for (auto& t : threads) t.join();
  if (not_batchable.load()) {
    std::fprintf(stderr, "FATAL: %s has no request-stream adapter\n",
                 app.name());
    std::abort();
  }
  if (lost_ops.load()) std::abort();
  if (!app.verify()) {
    std::fprintf(stderr,
                 "FATAL: %s failed verification (threads=%d, batch=%zu)\n",
                 app.name(), n, batch);
    std::abort();
  }
  if (requests_out != nullptr) *requests_out = total_requests.load();
  return elapsed;
}

}  // namespace cstm::stamp
