//===----------------------------------------------------------------------===//
///
/// \file
/// Metric rules: percentiles, the tail-percentile choice, peak RSS and the
/// end-to-end metric set.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <malloc.h>

namespace tsbench {

double percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Rank = std::ceil(P / 100.0 * static_cast<double>(Sorted.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return Sorted[std::min(Idx, Sorted.size() - 1)];
}

double tailPercentileFor(size_t N) {
  for (double P : {99.0, 95.0, 90.0, 80.0, 75.0, 50.0}) {
    size_t AtOrBelow = static_cast<size_t>(
        std::ceil(P / 100.0 * static_cast<double>(N)));
    if (N >= AtOrBelow + 10)
      return P;
  }
  return 50.0;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return percentile(V, 50);
}

double peakRssMb(int Pid) {
  std::string Path = Pid ? "/proc/" + std::to_string(Pid) + "/status"
                         : std::string("/proc/self/status");
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

void resetPeakRss() {
  ::malloc_trim(0); // hand freed reference-computation memory back first
  std::ofstream("/proc/self/clear_refs") << "5";
}

double medianLatencyMs(const std::vector<Op> &Ops) {
  std::vector<double> Lat;
  for (const Op &X : Ops)
    Lat.push_back(X.LatencyMs);
  return median(std::move(Lat));
}

StealSample StealMonitor::sample() const {
  StealSample S;
  S.AtS = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        Start)
              .count();
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  uint64_t Field = 0;
  Stat >> Cpu;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice)
  for (int I = 0; I < 8 && Stat >> Field; ++I) {
    S.Total += Field;
    if (I == 7)
      S.Steal = Field;
  }
  return S;
}

StealMonitor::StealMonitor() : Start(std::chrono::steady_clock::now()) {
  Sampler = std::thread([this] {
    std::unique_lock<std::mutex> Lock(M);
    do
      Samples.push_back(sample());
    while (!Cv.wait_for(Lock, std::chrono::milliseconds(50),
                        [this] { return Stop; }));
  });
}

std::vector<StealSample> StealMonitor::finish() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stop = true;
  }
  Cv.notify_all();
  if (Sampler.joinable()) {
    Sampler.join();
    Samples.push_back(sample()); // covers the last operations
  }
  return Samples;
}

double stealShare(const std::vector<StealSample> &S, double FromS,
                  double ToS) {
  if (S.empty())
    return 0;
  // The last sample at or before FromS and the first at or after ToS,
  // clamped to the samples there are.
  const StealSample *A = &S.front(), *B = nullptr;
  for (const StealSample &X : S) {
    if (X.AtS <= FromS)
      A = &X;
    if (X.AtS >= ToS && !B)
      B = &X;
  }
  if (!B)
    B = &S.back();
  if (B->Total <= A->Total)
    return 0;
  return static_cast<double>(B->Steal - A->Steal) / (B->Total - A->Total);
}

std::vector<Metric> endToEndMetrics(const Outcome &O, std::string *Note) {
  std::vector<Op> Ops = O.Ops;
  std::sort(Ops.begin(), Ops.end(),
            [](const Op &A, const Op &B) { return A.DoneS < B.DoneS; });

  struct Slice {
    size_t Lo, Hi;
    double FromS, ToS;
  };
  const size_t N = std::min<size_t>(20, Ops.size());
  std::vector<Slice> All, Kept;
  for (size_t K = 0; K < N; ++K) {
    size_t Lo = K * Ops.size() / N, Hi = (K + 1) * Ops.size() / N;
    All.push_back({Lo, Hi, K ? All.back().ToS : 0, Ops[Hi - 1].DoneS});
    if (stealShare(O.Steal, All.back().FromS, All.back().ToS) <=
        MaxSliceSteal)
      Kept.push_back(All.back());
  }
  if (Kept.size() * 2 < All.size())
    Kept = All;
  size_t KeptOps = 0;
  for (const Slice &S : Kept)
    KeptOps += S.Hi - S.Lo;
  const double TailP = tailPercentileFor(KeptOps);
  if (Note)
    *Note = "latency: " + std::to_string(KeptOps) +
            " samples; latency_p99_ms is the p" + jsonNumber(TailP) +
            " (the highest percentile with at least 10 samples beyond "
            "it)\nhost steal: " +
            jsonNumber(100 * stealShare(O.Steal, 0, Ops.empty()
                                                        ? 0
                                                        : Ops.back().DoneS)) +
            "% of CPU time in the timed phase; " +
            std::to_string(All.size() - Kept.size()) + " of " +
            std::to_string(All.size()) + " slices left out (steal > " +
            jsonNumber(100 * MaxSliceSteal) + "%)";

  std::vector<double> Qps, Pps, Mbps, P50, Tail;
  for (const Slice &S : Kept) {
    double V = 0, P = 0, B = 0;
    std::vector<double> Lat;
    for (size_t I = S.Lo; I < S.Hi; ++I) {
      V += Ops[I].Verdicts;
      P += Ops[I].Programs;
      B += Ops[I].Bytes;
      Lat.push_back(Ops[I].LatencyMs);
    }
    double Span = std::max(S.ToS - S.FromS, 1e-9);
    Qps.push_back(V / Span);
    Pps.push_back(P / Span);
    Mbps.push_back(B / 1e6 / Span);
    std::sort(Lat.begin(), Lat.end());
    P50.push_back(percentile(Lat, 50));
    Tail.push_back(percentile(Lat, TailP));
  }
  uint64_t Answered = O.Decided + O.Undecided;
  return {
      {"setup_s", median(O.SetupS), "s"},
      {"queries_per_s", median(Qps), "1/s"},
      {"latency_p50_ms", median(P50), "ms"},
      {"latency_p99_ms", median(Tail), "ms"},
      {"decided_share",
       Answered ? static_cast<double>(O.Decided) / Answered : 0, "ratio"},
      {"programs_per_s", median(Pps), "1/s"},
      {"racelog_mb_per_s", median(Mbps), "MB/s"},
      {"peak_rss_mb", O.PeakRssMb, "MB"},
  };
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace tsbench
