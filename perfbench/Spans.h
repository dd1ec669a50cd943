//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory span recorder for the traced run. A span records its name,
/// start, end, parent span and request id; spans stay in memory and are
/// written out when the run ends. A span's self time is its duration
/// minus the part of its interval covered by its children.
///
//===----------------------------------------------------------------------===//

#ifndef TSBENCH_SPANS_H
#define TSBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace tsbench {

struct Span {
  std::string Name;
  double StartUs = 0;
  double EndUs = 0;
  int64_t Parent = -1; ///< index of the parent span, -1 for a root
  uint64_t RequestId = 0;
};

/// Self time of every span in \p Spans (same order): duration minus the
/// union of its children's intervals, clipped to its own interval.
std::vector<double> selfTimesUs(const std::vector<Span> &Spans);

class Tracer {
public:
  Tracer() : Epoch(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Opens a span; returns its index.
  int64_t begin(const std::string &Name, uint64_t RequestId,
                int64_t Parent = -1);
  void end(int64_t Id);

  /// RAII span.
  class Scope {
  public:
    Scope(Tracer &T, const std::string &Name, uint64_t RequestId,
          int64_t Parent = -1)
        : T(T), Id(T.begin(Name, RequestId, Parent)) {}
    ~Scope() { T.end(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int64_t id() const { return Id; }

  private:
    Tracer &T;
    int64_t Id;
  };

  struct Aggregate {
    uint64_t Count = 0;
    double TotalUs = 0;
    double SelfUs = 0;
    double meanUs() const { return Count ? TotalUs / Count : 0; }
    double meanSelfUs() const { return Count ? SelfUs / Count : 0; }
  };
  /// Totals per span name.
  std::map<std::string, Aggregate> byName() const;

  /// Writes every span (one JSON object per line, with its self time)
  /// followed by the per-name totals. Returns false on an I/O error.
  bool write(const std::string &Path) const;

  std::vector<Span> spans() const;

private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }

  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex M;
  std::vector<Span> Spans; ///< guarded by M
};

} // namespace tsbench

#endif // TSBENCH_SPANS_H
