// Online feature pruning engine contract (ml/feature_pruner.h + engine.cc):
//  - pruning disabled (the default) is a perfect no-op — RunResult
//    fingerprint and DecisionLog JSONL byte-identical to the no-pruner
//    engine, no prune records, no prune metrics;
//  - pruning enabled derives the mask from virtual-time-visible state only,
//    so the run is byte-identical across cache on/off and holdout-eval
//    thread counts (wall-clock-only knobs);
//  - the freeze lands exactly once, at a holdout-eval boundary at or after
//    freeze_after_items, and is recorded consistently in the DecisionLog,
//    the prune.* metrics, and the engine's actual dimension compaction;
//  - a learner with no per-feature weights (kNN) disables the pruner into
//    a byte-identical no-op rather than guessing;
//  - a run that keeps no learning curve (RunSpec::record_curve false) still
//    ingests, speculates and freezes at every boundary, so it matches the
//    full-curve run on every field but the curve, pruned or not.

#include <cstdint>
#include <string>
#include <vector>

#include "bandit/epsilon_greedy.h"
#include "core/baselines.h"
#include "core/engine.h"
#include "core/reward.h"
#include "core/task_factory.h"
#include "featureeng/feature_cache.h"
#include "gtest/gtest.h"
#include "index/kmeans_grouper.h"
#include "ml/feature_pruner.h"
#include "ml/knn.h"
#include "ml/naive_bayes.h"
#include "obs/obs.h"
#include "util/string_util.h"

namespace zombie {
namespace {

/// Every deterministic RunResult field; wall_micros deliberately excluded.
std::string Fingerprint(const RunResult& r) {
  std::string s = StrFormat(
      "items=%zu loop=%lld holdout=%lld q=%.17g stop=%s pos=%zu\n",
      r.items_processed, static_cast<long long>(r.loop_virtual_micros),
      static_cast<long long>(r.holdout_virtual_micros), r.final_quality,
      StopReasonName(r.stop_reason), r.positives_processed);
  for (const ArmSummary& a : r.arms) {
    s += StrFormat("arm %zu %zu %.17g %zu\n", a.group_size, a.pulls,
                   a.total_reward, a.positives_seen);
  }
  s += r.curve.ToCsv();
  return s;
}

class EnginePruneTest : public ::testing::Test {
 protected:
  EnginePruneTest()
      : task_(MakeTask(TaskKind::kWebCat, 900, 42)),
        grouper_(6, 7),
        grouping_(grouper_.Group(task_.corpus)) {}

  struct Outcome {
    std::string fingerprint;
    std::string decisions_jsonl;
    uint64_t freezes = 0;
    uint64_t frozen_at_items = 0;
    uint64_t input_dimension = 0;
    uint64_t kept_features = 0;
    uint64_t pruned_features = 0;
  };

  Outcome RunWith(const FeaturePrunerOptions& pruning,
                  const Learner& learner, bool use_cache = true,
                  size_t eval_threads = 1) {
    // Fresh cache per run: every configuration starts cold, so only the
    // pruning itself differs between runs.
    FeatureCache cache;
    EngineOptions opts;
    opts.seed = 3;
    opts.holdout_size = 150;
    opts.eval_every = 10;
    opts.stop.max_items = 200;
    opts.holdout_eval_threads = eval_threads;
    opts.pruning = pruning;
    ObsContext obs;
    opts.obs = &obs;
    ExtractionService service(&task_.pipeline, use_cache ? &cache : nullptr);

    EpsilonGreedyPolicy policy;
    LabelReward reward;
    ZombieEngine engine(&task_.corpus, &service, opts);
    RunResult r = engine.Run(RunSpec(grouping_, policy, learner, reward));

    Outcome out;
    out.fingerprint = Fingerprint(r);
    out.decisions_jsonl = obs.decisions()->ToJsonl();
    out.freezes =
        static_cast<uint64_t>(obs.metrics()->GetCounter("prune.freezes")
                                  ->value());
    out.frozen_at_items = static_cast<uint64_t>(
        obs.metrics()->GetGauge("prune.frozen_at_items")->value());
    out.input_dimension = static_cast<uint64_t>(
        obs.metrics()->GetGauge("prune.input_dimension")->value());
    out.kept_features = static_cast<uint64_t>(
        obs.metrics()->GetGauge("prune.kept_features")->value());
    out.pruned_features = static_cast<uint64_t>(
        obs.metrics()->GetGauge("prune.pruned_features")->value());
    return out;
  }

  Task task_;
  KMeansGrouper grouper_;
  GroupingResult grouping_;
};

TEST_F(EnginePruneTest, DisabledPruningIsByteIdenticalNoOp) {
  NaiveBayesLearner nb;
  Outcome off = RunWith(FeaturePrunerOptions(), nb);
  EXPECT_EQ(off.freezes, 0u);
  EXPECT_EQ(off.decisions_jsonl.find("\"kind\": \"prune\""),
            std::string::npos);

  // An explicitly disabled preset must be a perfect no-op, not merely a
  // near miss.
  FeaturePrunerOptions disabled = ConservativePruning();
  disabled.enabled = false;
  Outcome run = RunWith(disabled, nb);
  EXPECT_EQ(run.fingerprint, off.fingerprint);
  EXPECT_EQ(run.decisions_jsonl, off.decisions_jsonl);
  EXPECT_EQ(run.freezes, 0u);
}

TEST_F(EnginePruneTest, PrunedRunByteIdenticalAcrossWallClockKnobs) {
  NaiveBayesLearner nb;
  const FeaturePrunerOptions conservative = ConservativePruning();
  Outcome base = RunWith(conservative, nb, /*use_cache=*/true,
                         /*eval_threads=*/1);
  // Non-vacuity: the mask really froze and really pruned.
  ASSERT_EQ(base.freezes, 1u);
  EXPECT_GT(base.pruned_features, 0u);
  EXPECT_EQ(base.kept_features + base.pruned_features, base.input_dimension);
  EXPECT_NE(base.decisions_jsonl.find("\"kind\": \"prune\""),
            std::string::npos);

  struct Knob {
    const char* name;
    bool use_cache;
    size_t eval_threads;
  };
  for (const Knob& k : {Knob{"no cache", false, 1}, Knob{"4 eval threads",
                                                         true, 4},
                        Knob{"no cache + threads", false, 4}}) {
    Outcome run = RunWith(conservative, nb, k.use_cache, k.eval_threads);
    EXPECT_EQ(run.fingerprint, base.fingerprint) << k.name;
    // Decision records carry a "cache" outcome field that legitimately
    // differs with the cache off (same as prune-off runs), so byte-equality
    // of the JSONL is only asserted between cache-mode-matched runs.
    if (k.use_cache) {
      EXPECT_EQ(run.decisions_jsonl, base.decisions_jsonl) << k.name;
    }
  }
}

TEST_F(EnginePruneTest, FreezeLandsAtHoldoutBoundaryAndIsRecorded) {
  NaiveBayesLearner nb;
  const FeaturePrunerOptions conservative = ConservativePruning();
  Outcome run = RunWith(conservative, nb);
  ASSERT_EQ(run.freezes, 1u);
  // eval_every=10 and freeze_after_items=100: the first boundary at or
  // after the warmup is exactly item 100.
  EXPECT_EQ(run.frozen_at_items, 100u);
  EXPECT_EQ(run.frozen_at_items % 10, 0u) << "freeze off an eval boundary";

  // The DecisionLog prune record carries the same facts the metrics do.
  const std::string line = StrFormat(
      "\"kind\": \"prune\", \"items\": %llu",
      static_cast<unsigned long long>(run.frozen_at_items));
  EXPECT_NE(run.decisions_jsonl.find(line), std::string::npos)
      << run.decisions_jsonl;
  for (const std::string& field :
       {StrFormat("\"input_dim\": %llu",
                  static_cast<unsigned long long>(run.input_dimension)),
        StrFormat("\"kept\": %llu",
                  static_cast<unsigned long long>(run.kept_features)),
        StrFormat("\"pruned\": %llu",
                  static_cast<unsigned long long>(run.pruned_features))}) {
    EXPECT_NE(run.decisions_jsonl.find(field), std::string::npos) << field;
  }
}

TEST_F(EnginePruneTest, AggressivePrunesMoreThanConservative) {
  NaiveBayesLearner nb;
  const FeaturePrunerOptions conservative = ConservativePruning();
  const FeaturePrunerOptions aggressive = AggressivePruning();
  Outcome cons = RunWith(conservative, nb);
  Outcome aggr = RunWith(aggressive, nb);
  ASSERT_EQ(cons.freezes, 1u);
  ASSERT_EQ(aggr.freezes, 1u);
  EXPECT_LT(aggr.kept_features, cons.kept_features);
  EXPECT_NE(aggr.fingerprint, cons.fingerprint)
      << "presets with different masks cannot produce identical runs";
}

TEST_F(EnginePruneTest, LearnerWithoutWeightsDisablesPruningAsNoOp) {
  KnnLearner knn(3);
  Outcome off = RunWith(FeaturePrunerOptions(), knn);
  Outcome on = RunWith(ConservativePruning(), knn);
  // kNN exports no per-feature weights: the pruner disables itself and the
  // run must be byte-identical to never having constructed it.
  EXPECT_EQ(on.freezes, 0u);
  EXPECT_EQ(on.fingerprint, off.fingerprint);
  EXPECT_EQ(on.decisions_jsonl, off.decisions_jsonl);
}

struct CurveRun {
  RunResult result;
  std::string decisions_jsonl;
  uint64_t evals = 0;
  uint64_t freezes = 0;
};

/// A full-scan-options bandit run (no quality-reading stop rule), the
/// shape under which record_curve=false skips every boundary score.
CurveRun RunFullScan(const Task& task, const GroupingResult& grouping,
                     const FeaturePrunerOptions& pruning, size_t eval_threads,
                     size_t max_items, bool record_curve) {
  EngineOptions opts;
  opts.seed = 3;
  opts.holdout_size = 150;
  opts.eval_every = 10;
  opts.holdout_eval_threads = eval_threads;
  opts.pruning = pruning;
  opts = FullScanOptions(opts);
  opts.stop.max_items = max_items;
  ObsContext obs;
  opts.obs = &obs;
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  ZombieEngine engine(&task.corpus, &task.pipeline, opts);
  RunSpec spec(grouping, policy, nb, reward);
  spec.record_curve = record_curve;
  CurveRun out;
  out.result = engine.Run(spec);
  out.decisions_jsonl = obs.decisions()->ToJsonl();
  out.evals = static_cast<uint64_t>(
      obs.metrics()->GetCounter("engine.evals")->value());
  out.freezes = static_cast<uint64_t>(
      obs.metrics()->GetCounter("prune.freezes")->value());
  return out;
}

void ExpectMetricsEq(const BinaryMetrics& got, const BinaryMetrics& want) {
  EXPECT_EQ(got.confusion.tp, want.confusion.tp);
  EXPECT_EQ(got.confusion.fp, want.confusion.fp);
  EXPECT_EQ(got.confusion.tn, want.confusion.tn);
  EXPECT_EQ(got.confusion.fn, want.confusion.fn);
  EXPECT_EQ(got.accuracy, want.accuracy);
  EXPECT_EQ(got.precision, want.precision);
  EXPECT_EQ(got.recall, want.recall);
  EXPECT_EQ(got.f1, want.f1);
  EXPECT_EQ(got.auc, want.auc);
}

TEST_F(EnginePruneTest, UnrecordedCurveMatchesFullCurveRunButTheCurve) {
  const FeaturePrunerOptions off;
  const FeaturePrunerOptions conservative = ConservativePruning();
  // No budget runs to exhaustion (750 items: the last lands on a
  // boundary); 205 is a budget stop between boundaries.
  for (size_t max_items : {StopRule().max_items, size_t{205}}) {
    for (const FeaturePrunerOptions* pruning : {&off, &conservative}) {
      for (size_t threads : {size_t{1}, size_t{2}}) {
        SCOPED_TRACE(StrFormat("max_items=%zu prune=%d threads=%zu",
                               max_items, pruning->enabled ? 1 : 0,
                               threads));
        CurveRun full = RunFullScan(task_, grouping_, *pruning, threads,
                                    max_items, /*record_curve=*/true);
        CurveRun last = RunFullScan(task_, grouping_, *pruning, threads,
                                    max_items, /*record_curve=*/false);
        const RunResult& a = full.result;
        const RunResult& b = last.result;
        EXPECT_EQ(b.items_processed, a.items_processed);
        EXPECT_EQ(b.stop_reason, a.stop_reason);
        EXPECT_EQ(b.holdout_virtual_micros, a.holdout_virtual_micros);
        EXPECT_EQ(b.loop_virtual_micros, a.loop_virtual_micros);
        EXPECT_EQ(b.positives_processed, a.positives_processed);
        EXPECT_EQ(b.final_quality, a.final_quality);
        ExpectMetricsEq(b.final_metrics, a.final_metrics);
        ASSERT_EQ(b.arms.size(), a.arms.size());
        for (size_t i = 0; i < a.arms.size(); ++i) {
          EXPECT_EQ(b.arms[i].group_size, a.arms[i].group_size);
          EXPECT_EQ(b.arms[i].pulls, a.arms[i].pulls);
          EXPECT_EQ(b.arms[i].total_reward, a.arms[i].total_reward);
          EXPECT_EQ(b.arms[i].positives_seen, a.arms[i].positives_seen);
        }
        // The JSONL carries every pull and the prune record.
        EXPECT_EQ(last.decisions_jsonl, full.decisions_jsonl);
        EXPECT_EQ(last.freezes, full.freezes);
        EXPECT_EQ(full.freezes, pruning->enabled ? 1u : 0u);

        // The unrecorded run scored the holdout exactly once: its one
        // curve point is the full curve's last.
        EXPECT_GT(full.evals, 2u);
        EXPECT_EQ(last.evals, 1u);
        ASSERT_EQ(b.curve.size(), 1u);
        const CurvePoint& p = b.curve.point(0);
        const CurvePoint& q = a.curve.points().back();
        EXPECT_EQ(p.items_processed, q.items_processed);
        EXPECT_EQ(p.virtual_micros, q.virtual_micros);
        EXPECT_EQ(p.quality, q.quality);
        ExpectMetricsEq(p.metrics, q.metrics);
      }
    }
  }
}

TEST_F(EnginePruneTest, QualityReadingStopRuleKeepsBoundaryScores) {
  // A stop rule that reads quality needs every boundary score, so the
  // curve stays whole even when the caller asked for none.
  EngineOptions opts;
  opts.seed = 3;
  opts.holdout_size = 150;
  opts.eval_every = 10;
  opts.stop.max_items = 200;
  opts.stop.plateau_enabled = false;
  opts.stop.decline_enabled = false;
  opts.stop.target_quality = 2.0;  // never reached: runs to the budget
  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;
  ZombieEngine engine(&task_.corpus, &task_.pipeline, opts);
  RunSpec spec(grouping_, policy, nb, reward);
  RunResult full = engine.Run(spec);
  spec.record_curve = false;
  RunResult unrecorded = engine.Run(spec);
  EXPECT_EQ(unrecorded.curve.ToCsv(), full.curve.ToCsv());
  EXPECT_EQ(full.curve.size(), 21u);  // origin + one per 10 items
}

}  // namespace
}  // namespace zombie
