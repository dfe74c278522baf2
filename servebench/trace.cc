#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace servebench {

uint64_t Tracer::NewId() {
  wwt::MutexLock lock(mu_);
  return next_id_++;
}

void Tracer::Add(Span span) {
  if (!enabled_) return;
  wwt::MutexLock lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  wwt::MutexLock lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path,
                            Clock::time_point origin) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto micros = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_us\":%.1f,\"end_us\":%.1f}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 micros(s.start), micros(s.end));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
                       uint64_t parent)
    : tracer_(tracer) {
  span_.name = name;
  span_.id = tracer_->enabled() ? tracer_->NewId() : 0;
  span_.parent = parent;
  span_.request = request;
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  span_.end = Clock::now();
  tracer_->Add(std::move(span_));
}

std::map<uint64_t, double> SelfSeconds(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<uint64_t, double> self;
  for (const Span& s : spans) {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const Clock::time_point lo = std::max(c->start, s.start);
        const Clock::time_point hi = std::min(c->end, s.end);
        if (lo < hi) cover.emplace_back(lo, hi);
      }
    }
    // Union of the (possibly overlapping, e.g. parallel shard probes)
    // child intervals.
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    Clock::time_point run_lo{}, run_hi{};
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) {
        covered += std::chrono::duration<double>(run_hi - run_lo).count();
      }
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += std::chrono::duration<double>(run_hi - run_lo).count();
    self[s.id] = s.seconds() - covered;
  }
  return self;
}

std::map<std::string, double> SelfSecondsByName(
    const std::vector<Span>& spans) {
  const std::map<uint64_t, double> self = SelfSeconds(spans);
  std::map<std::string, double> by_name;
  for (const Span& s : spans) by_name[s.name] += self.at(s.id);
  return by_name;
}

}  // namespace servebench
