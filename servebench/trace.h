// In-memory span recorder for the serving-path benchmark.
//
// A span is (request, id, parent, name, start, end) plus the token index and
// shard it concerns. Spans of one request share `request`; a root span has
// parent 0. Each recording thread appends to its own buffer, so recording
// takes no lock after a thread's first span; buffers are merged and written
// out once, when the run ends.

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

struct Span {
  std::uint64_t request = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t token = -1;  ///< token index, -1 when unknown
  std::int32_t shard = -1;  ///< shard id, -1 when not a per-shard call
  bool ok = true;
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  /// Spans are recorded only while enabled; a disabled check is one atomic
  /// load.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  std::uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  static std::int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void Record(const Span& span) { Buffer().push_back(span); }

  /// Every span recorded so far, in no particular order.
  std::vector<Span> Collect() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->begin(), buffer->end());
    }
    return all;
  }

  /// One JSON object per line; times in microseconds from the first span.
  static bool Write(const std::vector<Span>& spans, const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::int64_t origin = 0;
    if (!spans.empty()) {
      origin = std::min_element(spans.begin(), spans.end(),
                                [](const Span& a, const Span& b) {
                                  return a.start_ns < b.start_ns;
                                })->start_ns;
    }
    for (const Span& s : spans) {
      std::fprintf(f,
                   "{\"request\": %llu, \"id\": %llu, \"parent\": %llu, "
                   "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                   "\"token\": %d, \"shard\": %d, \"ok\": %s}\n",
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   1e-3 * static_cast<double>(s.start_ns - origin),
                   1e-3 * static_cast<double>(s.end_ns - origin), s.token,
                   s.shard, s.ok ? "true" : "false");
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span>& Buffer() {
    thread_local std::vector<Span>* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buffers_.back()->reserve(1 << 14);
      buffer = buffers_.back().get();
    }
    return *buffer;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex mu_;  ///< guards buffers_ (the list, not each thread's buffer)
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Self time of a span: its duration minus the part of it that the union of
/// its children's intervals covers.
inline double SelfTimeNs(const Span& parent,
                         std::vector<const Span*> children) {
  std::sort(children.begin(), children.end(), [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  });
  std::int64_t covered = 0;
  std::int64_t cursor = parent.start_ns;
  for (const Span* c : children) {
    const std::int64_t lo = std::max(cursor, c->start_ns);
    const std::int64_t hi = std::min(c->end_ns, parent.end_ns);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return static_cast<double>(parent.end_ns - parent.start_ns - covered);
}

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
