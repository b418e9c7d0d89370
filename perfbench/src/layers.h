// Per-layer split of a traced run: the spans the benchmark records around
// public calls, plus the spans and metrics the program already emits.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

/// Everything a traced run collected.
struct TracedRun {
  std::vector<zombie::TraceEvent> events;
  zombie::MetricsSnapshot metrics;
  Tally tally;
  /// Op walls of the traced passes and of the untraced passes between them.
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
};

/// The per-layer metrics, in BENCHMARK.json order. Times and counts are per
/// traced op unless the name says otherwise (data.load_ms and
/// featureeng.store_open_ms are per call; index.build_ms is per build).
std::vector<Metric> LayerMetrics(const TracedRun& run);

/// Prints the layer report: each span's total and self time per op, the
/// unattributed remainder and its share of op wall, the split of
/// engine.run by the program's own timers, set-up spans, and the tracing
/// overhead.
void PrintLayerReport(const std::string& workload, const TracedRun& run);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
