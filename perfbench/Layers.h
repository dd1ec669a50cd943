//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer replay for the daemon workloads. The queries
/// the traced phase sent are replayed in this process: once through
/// daemon::evaluateQuery (the daemon's own evaluator, for daemon.self_us)
/// and once call by call through each module's public functions, with a
/// span around every call.
///
//===----------------------------------------------------------------------===//

#ifndef TSBENCH_LAYERS_H
#define TSBENCH_LAYERS_H

#include "Bench.h"
#include "Spans.h"

#include <map>

namespace tsbench {

struct LayerInputs {
  std::vector<StreamQuery> Queries; ///< in the order they were answered
  std::vector<double> CallLatencyMs; ///< daemon round trip, same order
  std::string CacheFile;             ///< the daemon's TSCS file, if any
  std::map<std::string, uint64_t> StatsBefore, StatsAfter; ///< kind 7
  uint64_t OverloadedRetries = 0; ///< client, during the traced phase
  uint64_t TransportErrors = 0;   ///< client, during the traced phase
  double TracingOverheadUs = 0;
};

/// Replays \p In under \p T and appends the per-layer metrics to \p O.
void replayLayers(const LayerInputs &In, Tracer &T, Outcome &O);

/// Sets (or overwrites) one per-layer metric of \p O.
void setLayer(Outcome &O, const std::string &Name, double Value);

} // namespace tsbench

#endif // TSBENCH_LAYERS_H
