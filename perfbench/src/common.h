#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared helpers of the layered benchmark: the percentile helper, the span
// recorder, JSON-results digests and metric output.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Millis(Clock::duration d) { return Seconds(d) * 1e3; }

/// splitmix64 step: derives independent stream seeds from one run seed.
inline uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a, 64-bit: stable across runs, unlike std::hash.
inline uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A latency sample set reduced to its median and the highest percentile
/// that still has at least ten samples beyond it (capped at `max_q`).
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_q = 0;  ///< the percentile `tail` actually is, in [0, 1]
};

inline double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

inline Summary Summarize(std::vector<double> values, double max_q = 0.99) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = NearestRank(values, 0.5);
  const double supported = 1.0 - 10.0 / static_cast<double>(values.size());
  s.tail_q = std::max(0.5, std::min(max_q, supported));
  s.tail = NearestRank(values, s.tail_q);
  return s;
}

inline double Median(std::vector<double> values) {
  return Summarize(std::move(values)).p50;
}

/// \brief In-memory span recorder for one thread: name, start, end, parent
/// span and request id, written out when the benchmark ends.
class Tracer {
 public:
  struct Span {
    uint32_t name = 0;
    int32_t parent = -1;
    uint64_t request = 0;
    Clock::time_point start;
    Clock::time_point end;
  };

  // Movable, not copyable: a copy's ids_ would view the original's names.
  Tracer() = default;
  Tracer(Tracer&&) = default;
  Tracer& operator=(Tracer&&) = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int32_t Begin(std::string_view name, uint64_t request) {
    Span span;
    span.name = NameId(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    span.start = Clock::now();
    spans_.push_back(span);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  void End(int32_t id) {
    spans_[static_cast<size_t>(id)].end = Clock::now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Records an already-timed span (client-side phases of a request) and
  /// returns its index.
  int32_t Add(std::string_view name, uint64_t request, int32_t parent,
              Clock::time_point start, Clock::time_point end) {
    spans_.push_back({NameId(name), parent, request, start, end});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name(uint32_t id) const { return names_[id]; }

  /// Durations (ms) of every span called `name`.
  std::vector<double> DurationsMs(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (names_[s.name] == name) out.push_back(Millis(s.end - s.start));
    }
    return out;
  }

  /// Appends the spans as TSV lines (times relative to `origin`, in µs).
  void AppendTsv(std::string* out, Clock::time_point origin,
                 int thread) const {
    char line[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof(line), "%d\t%zu\t%d\t%llu\t%s\t%.3f\t%.3f\n",
                    thread, i, s.parent,
                    static_cast<unsigned long long>(s.request),
                    names_[s.name].c_str(),
                    Seconds(s.start - origin) * 1e6,
                    Seconds(s.end - origin) * 1e6);
      out->append(line);
    }
  }

 private:
  /// Interns `name`: a known name costs one lookup and no allocation.
  uint32_t NameId(std::string_view name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    names_.emplace_back(name);
    const auto id = static_cast<uint32_t>(names_.size() - 1);
    ids_.emplace(names_.back(), id);
    return id;
  }

  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::deque<std::string> names_;  ///< a deque: ids_ keys view its strings
  std::unordered_map<std::string_view, uint32_t> ids_;
};

/// RAII span over a Tracer; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, uint64_t request)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Order-insensitive digest of a SPARQL JSON results document: the row
/// count plus the sum of per-row hashes, so two documents holding the same
/// solutions in different orders compare equal.
struct ResultDigest {
  bool parsed = false;
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const ResultDigest& o) const {
    return parsed == o.parsed && rows == o.rows && sum == o.sum;
  }
};

/// Digests the objects of `results.bindings` in `body`.
inline ResultDigest DigestJsonResults(std::string_view body) {
  ResultDigest d;
  const size_t at = body.find("\"bindings\":[");
  if (at == std::string_view::npos) return d;
  size_t i = at + 12;
  int depth = 0;
  bool in_string = false;
  size_t row_start = 0;
  for (; i < body.size(); ++i) {
    const char c = body[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth++ == 0) row_start = i;
    } else if (c == '}') {
      if (--depth == 0) {
        d.sum += Fnv1a(body.substr(row_start, i + 1 - row_start));
        ++d.rows;
      }
    } else if (c == ']' && depth == 0) {
      d.parsed = true;
      break;
    }
  }
  return d;
}

/// Every `"value":"..."` string of a JSON results document, unescaped for
/// the plain IRIs and literals the workloads use.
inline std::vector<std::string> JsonValues(std::string_view body) {
  std::vector<std::string> out;
  constexpr std::string_view kKey = "\"value\":\"";
  size_t pos = 0;
  while ((pos = body.find(kKey, pos)) != std::string_view::npos) {
    pos += kKey.size();
    std::string value;
    while (pos < body.size() && body[pos] != '"') {
      if (body[pos] == '\\' && pos + 1 < body.size()) ++pos;
      value.push_back(body[pos++]);
    }
    out.push_back(std::move(value));
  }
  return out;
}

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
inline std::string ResultJson(bool correct, uint64_t attempted,
                              uint64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char number[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(number, sizeof(number), "%.10g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
