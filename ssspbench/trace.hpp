// In-memory spans for the traced run: each call the benchmark makes into a
// layer of the library is bracketed by a span (name, start, end, parent,
// query id). Spans are kept in memory and written out as JSON at the end,
// so tracing costs two clock reads and a vector append per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ssspbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  std::string name;
  double start_ms = 0.0;  // since the process started
  double end_ms = 0.0;
  int64_t parent = -1;    // index of the enclosing span, -1 for none
  uint64_t query_id = 0;  // service query id, 0 outside the service
};

class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id (-1 when tracing is off).
  int64_t begin(const std::string& name, int64_t parent = -1,
                uint64_t query_id = 0) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_ms(), 0.0, parent, query_id});
    return int64_t(spans_.size() - 1);
  }

  void end(int64_t id) {
    if (id >= 0) spans_[size_t(id)].end_ms = now_ms();
  }

  /// Records a span whose bounds were measured elsewhere.
  int64_t add(const std::string& name, Clock::time_point start,
              Clock::time_point end, int64_t parent = -1,
              uint64_t query_id = 0) {
    if (!enabled_) return -1;
    spans_.push_back({name, ms_between(origin_, start),
                      ms_between(origin_, end), parent, query_id});
    return int64_t(spans_.size() - 1);
  }

  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.end_ms - s.start_ms);
    return out;
  }

  /// Writes every span as one JSON document, with the traced run's own
  /// end-to-end figures (`end_to_end`, a JSON object) beside them so the
  /// tracing overhead can be read off; returns false on I/O failure.
  bool write_json(const std::string& path, const std::string& workload,
                  uint64_t seed, const std::string& end_to_end) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f,
                 "{\"workload\":\"%s\",\"seed\":%llu,\"end_to_end\":%s,"
                 "\"spans\":[\n",
                 workload.c_str(), static_cast<unsigned long long>(seed),
                 end_to_end.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,"
                   "\"end_ms\":%.6f,\"parent\":%lld,\"query_id\":%llu}\n",
                   i ? "," : "", i, s.name.c_str(), s.start_ms, s.end_ms,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.query_id));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double now_ms() const { return ms_between(origin_, Clock::now()); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace ssspbench
