#include "trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>

namespace perfbench {

Lane& Tracer::lane(int tid) {
  while (lanes_.size() <= static_cast<std::size_t>(tid)) {
    lanes_.push_back(std::make_unique<Lane>(static_cast<int>(lanes_.size())));
  }
  return *lanes_[static_cast<std::size_t>(tid)];
}

std::uint64_t Tracer::spans() const {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->spans().size();
  return n;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->dropped();
  return n;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& workload,
                               std::uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& l : lanes_) {
    for (const Span& s : l->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f,
               "{\"otherData\": {\"workload\": \"%s\", \"seed\": %" PRIu64
               ", \"spans_dropped\": %" PRIu64 "},\n"
               "\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [",
               workload.c_str(), seed, dropped());
  bool first = true;
  for (const auto& l : lanes_) {
    std::fprintf(f,
                 "%s\n{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"name\": \"%s%d\"}}",
                 first ? "" : ",", l->tid(), l->tid() == 0 ? "main" : "worker-",
                 l->tid() == 0 ? 0 : l->tid() - 1);
    first = false;
    for (const Span& s : l->spans()) {
      std::fprintf(f,
                   ",\n{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", "
                   "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %" PRIu64 ", \"parent\": %" PRIu64,
                   s.name, s.layer, l->tid(),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                   s.parent);
      if (s.detail != nullptr) std::fprintf(f, ", \"detail\": \"%s\"", s.detail);
      if (s.req >= 0) std::fprintf(f, ", \"req\": %" PRId64, s.req);
      std::fputs("}}", f);
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
