// In-memory span recorder for the traced benchmark run.
//
// Spans are taken in the benchmark's own code, around each call it makes
// into a library layer (App::setup/worker/verify, Batcher::enqueue/drain,
// DurableHeap::open, the probes). Each span has a name, the layer it
// enters, start, end, its own id and its parent's id; request-level spans
// also carry the request id. Every thread writes to its own Lane, so
// recording takes no lock. Lanes are written out once, after the run, as
// Chrome trace-event JSON (chrome://tracing, Perfetto).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  const char* layer = "";
  const char* detail = nullptr;  // app or probe name; static storage
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t req = -1;     // request id on the stream, else -1
};

/// One thread's span buffer. Only its owning thread records into it; the
/// tracer reads it after that thread has been joined.
class Lane {
 public:
  explicit Lane(int tid) : tid_(tid) {}
  void push(const Span& s) {
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }
  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  // Bounds memory and output size: a traced stream pass has one enqueue
  // span per request. Spans past the cap are counted, not kept.
  static constexpr std::size_t kMaxSpans = 40000;
  int tid_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

class Tracer {
 public:
  /// Lane 0 is the main thread; worker thread t uses lane t + 1.
  Lane& lane(int tid);
  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Writes every lane as Chrome trace-event JSON. Returns false on I/O
  /// failure.
  bool write_chrome_json(const std::string& path, const std::string& workload,
                         std::uint64_t seed) const;
  std::uint64_t spans() const;
  std::uint64_t dropped() const;

 private:
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<std::uint64_t> next_id_{1};
};

/// Records one span on destruction. With a null lane (tracing off) it is a
/// no-op apart from the constructor's bookkeeping.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Lane* lane, const char* layer, const char* name,
             std::uint64_t parent, const char* detail = nullptr,
             std::int64_t req = -1)
      : lane_(tracer != nullptr ? lane : nullptr) {
    if (lane_ == nullptr) return;
    span_.name = name;
    span_.layer = layer;
    span_.detail = detail;
    span_.parent = parent;
    span_.req = req;
    span_.id = tracer->next_id();
    span_.start_ns = now_ns();
  }
  ~ScopedSpan() {
    if (lane_ == nullptr) return;
    span_.end_ns = now_ns();
    lane_->push(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Lane* lane_;
  Span span_;
};

}  // namespace perfbench
