// The three benchmark workloads. Each drives the library only through its
// public entry points (LoadCorpus, Grouper::Group /
// IncrementalGrouper::GroupBase, PersistentFeatureStore::Open,
// ExperimentDriver::RunGrid, RunSession) and times them from outside.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "harness.h"
#include "obs/obs.h"
#include "util/status.h"

namespace perfbench {

/// Layer counters the program keeps outside the ObsContext (store
/// statistics, whose gauges reset when the store is reopened, and the index
/// shape), summed over traced passes.
struct Tally {
  size_t index_groups = 0;
  uint64_t store_hits = 0;
  uint64_t store_misses = 0;
  uint64_t store_appends = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One full set-up, from corpus load to the state before the first op;
  /// replaces any earlier state. Spans go to `trace` (may be null).
  [[nodiscard]] virtual zombie::Status Setup(zombie::TraceRecorder* trace) = 0;

  /// One pass over the workload's fixed trial list, every op through
  /// `log`. `obs` (may be null) is attached to the program for the pass.
  [[nodiscard]] virtual zombie::Status RunPass(zombie::ObsContext* obs,
                                               OpLog* log) = 0;

  /// Counters from traced passes (RunPass with a non-null `obs`).
  const Tally& tally() const { return tally_; }

 protected:
  Tally tally_;
};

/// The workload named `name` over the corpus file `corpus_path`; scratch
/// files (the stream_store feature store) go under `workdir`. Null for an
/// unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& corpus_path,
                                       const std::string& workdir);

/// Writes the 12 000-doc WebCat corpus for `seed` to `path`.
[[nodiscard]] zombie::Status GenerateCorpus(uint64_t seed,
                                            const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
