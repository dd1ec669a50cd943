//===----------------------------------------------------------------------===//
///
/// \file
/// tsbench: runs one TraceSafe benchmark workload and prints its metrics.
///
///   tsbench run --workload W --seed N --seconds S --trace 0|1
///               --run-dir DIR --out-dir DIR [--stamp KEY=VALUE]...
///   tsbench daemon ... | load ...  (child processes; see Daemon.h)
///
/// The last line of standard output is one JSON object with the keys
/// correct, attempted, failed and metrics: the end-to-end metrics with
/// --trace 0, the per-layer metrics with --trace 1. Exit code 0 when every
/// verdict matched its reference, 1 on a mismatch, 2 on a usage or build
/// error. perfbench/run.py builds this binary and invokes it.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Daemon.h"

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sched.h>
#include <thread>
#include <unistd.h>

using namespace tsbench;

namespace {

unsigned detectNproc() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) >= 0x20)
      Out += Ch;
  }
  return Out + "\"";
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (const Metric &M : Ms) {
    if (Out.size() > 1)
      Out += ", ";
    Out += jsonString(M.Name) + ": {\"value\": " + jsonNumber(M.Value) +
           ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  return Out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: tsbench run --workload W --seed N --seconds S "
               "--trace 0|1 --run-dir DIR --out-dir DIR [--stamp K=V]...\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && std::string(Argv[1]) == "daemon")
    return daemonMain(Argc, Argv);
  if (Argc >= 2 && std::string(Argv[1]) == "load")
    return loadMain(Argc, Argv);
  if (Argc < 2 || std::string(Argv[1]) != "run")
    return usage();

#ifndef NDEBUG
  std::fprintf(stderr, "tsbench: refusing to measure a build with asserts "
                       "enabled (build type %s)\n",
               TSBENCH_BUILD_TYPE);
  return 2;
#endif
  if (std::string(TSBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "tsbench: refusing to measure a %s build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 TSBENCH_BUILD_TYPE);
    return 2;
  }

  RunConfig C;
  std::map<std::string, std::string> Stamp;
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string Arg = Argv[I], Val = Argv[I + 1];
    if (Arg == "--workload")
      C.Workload = Val;
    else if (Arg == "--seed")
      C.Seed = std::stoull(Val);
    else if (Arg == "--seconds")
      C.Seconds = std::stod(Val);
    else if (Arg == "--trace")
      C.Trace = Val == "1";
    else if (Arg == "--run-dir")
      C.RunDir = Val;
    else if (Arg == "--out-dir")
      C.OutDir = Val;
    else if (Arg == "--stamp" && Val.find('=') != std::string::npos)
      Stamp[Val.substr(0, Val.find('='))] = Val.substr(Val.find('=') + 1);
    else
      return usage();
  }
  Outcome (*Run)(const RunConfig &) = nullptr;
  if (C.Workload == "serve_cold")
    Run = runServeCold;
  else if (C.Workload == "serve_repeat")
    Run = runServeRepeat;
  else if (C.Workload == "campaign_burst")
    Run = runCampaignBurst;
  else if (C.Workload == "relaxed_sweep")
    Run = runRelaxedSweep;
  else if (C.Workload == "racelog_scan")
    Run = runRacelogScan;
  if (!Run || C.RunDir.empty() || C.OutDir.empty() || C.Seconds <= 0)
    return usage();

  C.Nproc = detectNproc();
  C.SelfExe = std::filesystem::read_symlink("/proc/self/exe").string();
  std::filesystem::create_directories(C.RunDir);
  std::filesystem::create_directories(C.OutDir);

  // Every result is stamped with what produced it.
  Stamp["nproc"] = std::to_string(C.Nproc);
  Stamp["build_type"] = TSBENCH_BUILD_TYPE;
  Stamp["workload"] = C.Workload;
  Stamp["seed"] = std::to_string(C.Seed);
  Stamp["seconds"] = jsonNumber(C.Seconds);
  Stamp["trace"] = C.Trace ? "1" : "0";
  std::string StampLine = "stamp:";
  for (const auto &[K, V] : Stamp)
    StampLine += " " + K + "=" + V;
  std::cout << StampLine << "\n";

  Outcome O;
  try {
    O = Run(C);
  } catch (const std::exception &E) {
    std::filesystem::remove_all(C.RunDir);
    std::fprintf(stderr, "tsbench: %s failed: %s\n", C.Workload.c_str(),
                 E.what());
    return 2;
  }
  std::filesystem::remove_all(C.RunDir);

  for (const std::string &N : O.Notes)
    std::cout << N << "\n";
  std::cout << "operations: attempted=" << O.Attempted
            << " succeeded=" << O.Succeeded << " failed=" << O.Failed
            << " (mismatches=" << O.Mismatches
            << " transport-errors=" << O.TransportErrors
            << " bad-requests=" << O.BadRequests
            << " final-overloaded=" << O.FinalOverloaded
            << ") decided=" << O.Decided << " undecided=" << O.Undecided
            << " overloaded-retries=" << O.OverloadedRetries
            << " retries=" << O.Retries << " failed_share="
            << jsonNumber(O.Attempted ? static_cast<double>(O.Failed) /
                                            O.Attempted
                                      : 0)
            << "\n";

  std::vector<Metric> Ms;
  std::string StealNote;
  std::vector<Metric> EndToEnd = endToEndMetrics(O, &StealNote);
  std::cout << StealNote << "\n";
  if (!C.Trace) {
    Ms = EndToEnd;
  } else {
    for (const auto &[Name, Unit] : perLayerNames()) {
      double V = 0;
      for (const Metric &M : O.Layer)
        if (M.Name == Name)
          V = M.Value;
      Ms.push_back({Name, V, Unit});
    }
  }
  for (const Metric &M : Ms)
    std::cout << "  " << M.Name << " = " << jsonNumber(M.Value) << " "
              << M.Unit << "\n";
  const bool Correct = O.Mismatches == 0;
  std::cout << "{\"correct\": " << (Correct ? "true" : "false")
            << ", \"attempted\": " << O.Attempted
            << ", \"failed\": " << O.Failed
            << ", \"metrics\": " << metricsJson(Ms) << "}" << std::endl;
  return Correct ? 0 : 1;
}
