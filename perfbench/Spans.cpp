#include "Spans.h"

#include <algorithm>
#include <fstream>

namespace tsbench {

std::vector<double> selfTimesUs(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && static_cast<size_t>(S.Parent) < Spans.size())
      Children[S.Parent].push_back({S.StartUs, S.EndUs});
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    double Lo = Spans[I].StartUs, Hi = Spans[I].EndUs;
    std::vector<std::pair<double, double>> &C = Children[I];
    std::sort(C.begin(), C.end());
    // Union of the children's intervals, clipped to [Lo, Hi].
    double Covered = 0, RunLo = 0, RunHi = -1;
    bool Open = false;
    for (auto [A, B] : C) {
      A = std::max(A, Lo);
      B = std::min(B, Hi);
      if (B <= A)
        continue;
      if (Open && A <= RunHi) {
        RunHi = std::max(RunHi, B);
        continue;
      }
      if (Open)
        Covered += RunHi - RunLo;
      RunLo = A;
      RunHi = B;
      Open = true;
    }
    if (Open)
      Covered += RunHi - RunLo;
    Self[I] = std::max(0.0, (Hi - Lo) - Covered);
  }
  return Self;
}

int64_t Tracer::begin(const std::string &Name, uint64_t RequestId,
                      int64_t Parent) {
  double Now = nowUs();
  std::lock_guard<std::mutex> Lock(M);
  Spans.push_back({Name, Now, Now, Parent, RequestId});
  return static_cast<int64_t>(Spans.size()) - 1;
}

void Tracer::end(int64_t Id) {
  double Now = nowUs();
  std::lock_guard<std::mutex> Lock(M);
  Spans[static_cast<size_t>(Id)].EndUs = Now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(M);
  return Spans;
}

std::map<std::string, Tracer::Aggregate> Tracer::byName() const {
  std::vector<Span> All = spans();
  std::vector<double> Self = selfTimesUs(All);
  std::map<std::string, Aggregate> Out;
  for (size_t I = 0; I < All.size(); ++I) {
    Aggregate &A = Out[All[I].Name];
    ++A.Count;
    A.TotalUs += All[I].EndUs - All[I].StartUs;
    A.SelfUs += Self[I];
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::vector<Span> All = spans();
  std::vector<double> Self = selfTimesUs(All);
  std::ofstream Out(Path);
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    Out << "{\"id\":" << I << ",\"name\":\"" << S.Name
        << "\",\"start_us\":" << S.StartUs << ",\"end_us\":" << S.EndUs
        << ",\"parent\":" << S.Parent << ",\"request\":" << S.RequestId
        << ",\"self_us\":" << Self[I] << "}\n";
  }
  for (const auto &[Name, A] : byName())
    Out << "{\"total\":\"" << Name << "\",\"count\":" << A.Count
        << ",\"total_us\":" << A.TotalUs << ",\"self_us\":" << A.SelfUs
        << "}\n";
  return static_cast<bool>(Out);
}

} // namespace tsbench
