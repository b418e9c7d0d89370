#include "core/experiment_driver.h"

#include <thread>

#include "core/baselines.h"
#include "core/engine.h"
#include "obs/obs.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace zombie {

Status ExperimentGrid::Validate() const {
  if (policies.empty()) {
    return Status::InvalidArgument("grid has no policies");
  }
  if (groupings.empty()) {
    return Status::InvalidArgument("grid has no groupings");
  }
  if (rewards.empty()) return Status::InvalidArgument("grid has no rewards");
  if (learners.empty()) {
    return Status::InvalidArgument("grid has no learners");
  }
  if (seeds.empty()) return Status::InvalidArgument("grid has no seeds");
  for (const GroupingResult* g : groupings) {
    if (g == nullptr) {
      return Status::InvalidArgument("grid grouping is null");
    }
  }
  for (const RewardFunction* r : rewards) {
    if (r == nullptr) return Status::InvalidArgument("grid reward is null");
  }
  for (const Learner* l : learners) {
    if (l == nullptr) return Status::InvalidArgument("grid learner is null");
  }
  return Status::OK();
}

std::string TrialSpec::Label() const {
  std::string label =
      StrFormat("%s/%s/%s/%s/s%llu", PolicyKindName(policy),
                grouping != nullptr ? grouping->method.c_str() : "?",
                reward != nullptr ? reward->name().c_str() : "?",
                learner != nullptr ? learner->name().c_str() : "?",
                static_cast<unsigned long long>(seed));
  // No-override cells keep the historical label so prunings-free grids
  // produce byte-identical logs and reports.
  if (pruning != nullptr) {
    label += StrFormat("/prune@%zu", pruning_index);
  }
  return label;
}

namespace {

size_t ResolveThreads(size_t requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

/// Metric-backed pool hooks when the driver has an obs context with
/// metrics enabled; empty (zero-cost) hooks otherwise.
ThreadPoolStatsHooks DriverPoolHooks(const ExperimentDriverOptions& options) {
  ObsContext* obs = options.engine.obs;
  return MetricsPoolHooks(obs != nullptr ? obs->metrics() : nullptr);
}

}  // namespace

ExperimentDriver::ExperimentDriver(const Corpus* corpus,
                                   const FeaturePipeline* pipeline,
                                   ExperimentDriverOptions options)
    : corpus_(corpus),
      pipeline_(pipeline),
      options_(options),
      num_threads_(ResolveThreads(options.num_threads)) {
  ZCHECK(corpus != nullptr);
  ZCHECK(pipeline != nullptr);
  ZCHECK((options_.stream == nullptr) ==
         (options_.incremental_grouper == nullptr))
      << "streaming needs both the source and the incremental grouper";
  ObsContext* obs = options_.engine.obs;
  service_ = std::make_unique<ExtractionService>(
      pipeline_, options_.cache, options_.prefetch,
      obs != nullptr ? obs->trace() : nullptr, options_.store);
}

StatusOr<std::vector<TrialResult>> ExperimentDriver::RunGrid(
    const ExperimentGrid& grid) const {
  ZOMBIE_RETURN_IF_ERROR(grid.Validate());

  // Row-major expansion keeps result order independent of execution order.
  // An empty prunings axis expands as one no-override cell, so grids that
  // predate the axis keep their exact trial order and labels.
  std::vector<const FeaturePrunerOptions*> prunings = grid.prunings;
  if (prunings.empty()) prunings.push_back(nullptr);
  std::vector<TrialSpec> specs;
  specs.reserve(grid.size());
  for (PolicyKind policy : grid.policies) {
    for (const GroupingResult* grouping : grid.groupings) {
      for (const RewardFunction* reward : grid.rewards) {
        for (const Learner* learner : grid.learners) {
          for (size_t p = 0; p < prunings.size(); ++p) {
            for (uint64_t seed : grid.seeds) {
              TrialSpec spec;
              spec.index = specs.size();
              spec.policy = policy;
              spec.grouping = grouping;
              spec.reward = reward;
              spec.learner = learner;
              spec.pruning = prunings[p];
              spec.pruning_index = p;
              spec.seed = seed;
              specs.push_back(spec);
            }
          }
        }
      }
    }
  }

  std::vector<TrialResult> results(specs.size());
  ObsContext* obs = options_.engine.obs;
  TraceRecorder* tracer = obs != nullptr ? obs->trace() : nullptr;
  // Trial labels must outlive their TraceSpans (spans store the name
  // pointer), so they are materialized before the pool starts.
  // Once per trial, not per event.
  std::vector<std::string> labels;  // zombie-lint: allow(no-hot-path-string-copy)
  if (tracer != nullptr) {
    labels.reserve(specs.size());
    for (const TrialSpec& spec : specs) labels.push_back(spec.Label());
  }
  ThreadPool pool(std::min(num_threads_, std::max<size_t>(specs.size(), 1)),
                  DriverPoolHooks(options_));
  Status st = ParallelForStatus(&pool, specs.size(), [&](size_t i) {
    const TrialSpec& spec = specs[i];
    TraceSpan trial_span(tracer,
                         tracer != nullptr ? labels[i].c_str() : "trial",
                         "driver");
    EngineOptions opts = options_.engine;
    opts.seed = spec.seed;
    ZombieEngine engine(corpus_, service_.get(), opts);
    std::unique_ptr<BanditPolicy> policy = MakePolicy(spec.policy);
    if (policy == nullptr) {
      return Status::Internal(StrFormat("trial %zu: unknown policy", i));
    }
    TrialResult& out = results[i];
    out.spec = spec;
    RunSpec run_spec(*spec.grouping, *policy, *spec.learner, *spec.reward);
    run_spec.pruning_override = spec.pruning;
    run_spec.stream = options_.stream;
    run_spec.incremental_grouper = options_.incremental_grouper;
    out.run = engine.Run(run_spec);
    if (options_.cache != nullptr) out.cache = options_.cache->Stats();
    return Status::OK();
  });
  ZOMBIE_RETURN_IF_ERROR(std::move(st));
  if (options_.cache != nullptr && obs != nullptr) {
    options_.cache->ExportMetrics(obs->metrics());
  }
  if (obs != nullptr && obs->metrics() != nullptr) {
    obs->metrics()->GetCounter("driver.trials")->Increment(specs.size());
  }
  return results;
}

std::vector<RunResult> ExperimentDriver::RunScanBaselines(
    const std::vector<uint64_t>& seeds, const Learner& learner_prototype,
    bool sequential) const {
  std::vector<RunResult> results(seeds.size());
  if (seeds.empty()) return results;
  ThreadPool pool(std::min(num_threads_, seeds.size()),
                  DriverPoolHooks(options_));
  ParallelFor(&pool, seeds.size(), [&](size_t i) {
    EngineOptions opts = options_.engine;
    opts.seed = seeds[i];
    ZombieEngine engine(corpus_, service_.get(), FullScanOptions(opts));
    results[i] = sequential
                     ? RunSequentialBaseline(engine, learner_prototype)
                     : RunRandomBaseline(engine, learner_prototype);
  });
  return results;
}

}  // namespace zombie
