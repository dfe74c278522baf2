// Copyright 2026 The WWT Authors
//
// In-memory spans for the traced run. The benchmark records a span
// around each call it makes into a layer's public API (never inside the
// program), keeps every span in memory while it runs, and writes them
// out when the run ends. A layer's self time is its span's duration
// minus the part of that interval its child spans cover.

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  uint64_t id = 0;
  /// 0 = a root span.
  uint64_t parent = 0;
  /// Spans of one request share this id; 0 = not tied to a request.
  uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;

  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

/// Thread-safe span sink. A disabled tracer hands out ids but keeps
/// nothing, so untraced runs pay only for the clock reads.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  uint64_t NewId();
  void Add(Span span) WWT_EXCLUDES(mu_);
  std::vector<Span> spans() const WWT_EXCLUDES(mu_);

  /// Writes one JSON object per line: name, id, parent, request, and
  /// start/end in microseconds since `origin`.
  bool WriteJsonLines(const std::string& path, Clock::time_point origin) const;

 private:
  const bool enabled_;
  mutable wwt::Mutex mu_;
  uint64_t next_id_ WWT_GUARDED_BY(mu_) = 1;
  std::vector<Span> spans_ WWT_GUARDED_BY(mu_);
};

/// Records [construction, destruction) as one span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             uint64_t parent = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Per span: duration minus the union of its children's intervals
/// (clipped to the span), keyed by span id.
std::map<uint64_t, double> SelfSeconds(const std::vector<Span>& spans);

/// Self seconds summed per span name.
std::map<std::string, double> SelfSecondsByName(
    const std::vector<Span>& spans);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
