// Speculative prefetch inertness: prefetch is a wall-clock-only
// optimization, so RunResult and the DecisionLog JSONL stream must be
// byte-identical with prefetch off or on at any thread count — across
// policies and groupings, from a cold cache each time. These tests pin
// that contract (the same discipline as the holdout-parallelism and obs
// tests) and sanity-check that speculation actually happened, so the
// equivalence assertions are not vacuously comparing two no-prefetch runs.
// They also run under the ASan and TSan CI legs, where a racing prefetch
// worker would be caught directly.

#include <cstdint>
#include <string>
#include <vector>

#include "bandit/epsilon_greedy.h"
#include "bandit/ucb1.h"
#include "core/engine.h"
#include "core/reward.h"
#include "core/task_factory.h"
#include "featureeng/feature_cache.h"
#include "gtest/gtest.h"
#include "index/kmeans_grouper.h"
#include "index/metadata_grouper.h"
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

class EnginePrefetchTest : public ::testing::Test {
 protected:
  EnginePrefetchTest()
      : task_(MakeTask(TaskKind::kWebCat, 900, 42)),
        kmeans_grouper_(6, 7),
        kmeans_grouping_(kmeans_grouper_.Group(task_.corpus)),
        metadata_grouper_(8),
        metadata_grouping_(metadata_grouper_.Group(task_.corpus)) {}

  struct Outcome {
    std::string fingerprint;
    std::string decisions_jsonl;
    uint64_t prefetch_enqueued = 0;
    uint64_t prefetch_issued = 0;
    uint64_t prefetch_useful = 0;
  };

  Outcome RunWith(const GroupingResult& grouping, const BanditPolicy& policy,
                  size_t prefetch_threads) {
    // Fresh cache per run: every configuration starts from the same cold
    // state, so only the speculation itself differs between runs.
    FeatureCache cache;
    EngineOptions opts;
    opts.seed = 3;
    opts.holdout_size = 150;
    opts.eval_every = 10;
    opts.stop.max_items = 200;
    ObsContext obs;
    opts.obs = &obs;
    PrefetchOptions prefetch;
    prefetch.threads = prefetch_threads;
    prefetch.max_arms = 4;
    ExtractionService service(&task_.pipeline, &cache, prefetch, obs.trace());

    NaiveBayesLearner learner;
    LabelReward reward;
    ZombieEngine engine(&task_.corpus, &service, opts);
    RunResult r = engine.Run(RunSpec(grouping, policy, learner, reward));

    Outcome out;
    out.fingerprint = Fingerprint(r);
    out.decisions_jsonl = obs.decisions()->ToJsonl();
    out.prefetch_enqueued =
        obs.metrics()->GetCounter("prefetch.enqueued")->value();
    out.prefetch_issued =
        obs.metrics()->GetCounter("prefetch.issued")->value();
    out.prefetch_useful =
        obs.metrics()->GetCounter("prefetch.useful")->value();
    return out;
  }

  Task task_;
  KMeansGrouper kmeans_grouper_;
  GroupingResult kmeans_grouping_;
  MetadataGrouper metadata_grouper_;
  GroupingResult metadata_grouping_;
};

TEST_F(EnginePrefetchTest, ByteIdenticalAcrossPrefetchThreadCounts) {
  EpsilonGreedyPolicy egreedy;
  Ucb1Policy ucb1;
  struct Config {
    const char* name;
    const GroupingResult* grouping;
    const BanditPolicy* policy;
  };
  const Config configs[] = {
      {"egreedy/kmeans", &kmeans_grouping_, &egreedy},
      {"egreedy/metadata", &metadata_grouping_, &egreedy},
      {"ucb1/kmeans", &kmeans_grouping_, &ucb1},
      {"ucb1/metadata", &metadata_grouping_, &ucb1},
  };
  for (const Config& c : configs) {
    Outcome off = RunWith(*c.grouping, *c.policy, 0);
    EXPECT_EQ(off.prefetch_enqueued, 0u) << c.name;
    for (size_t threads : {2u, 8u}) {
      Outcome on = RunWith(*c.grouping, *c.policy, threads);
      EXPECT_EQ(on.fingerprint, off.fingerprint)
          << c.name << " prefetch_threads=" << threads << " changed RunResult";
      EXPECT_EQ(on.decisions_jsonl, off.decisions_jsonl)
          << c.name << " prefetch_threads=" << threads
          << " changed the decision log";
      // Non-vacuity: speculation really ran in the prefetch-on runs.
      EXPECT_GT(on.prefetch_enqueued, 0u)
          << c.name << " prefetch_threads=" << threads;
    }
  }
}

TEST_F(EnginePrefetchTest, PrefetchMetricsAreExportedAndConsistent) {
  EpsilonGreedyPolicy policy;
  Outcome on = RunWith(kmeans_grouping_, policy, 4);
  EXPECT_GT(on.prefetch_enqueued, 0u);
  EXPECT_GT(on.prefetch_issued, 0u);
  EXPECT_LE(on.prefetch_issued, on.prefetch_enqueued);
  // The engine walks groups the prefetcher ranked highly, so at least some
  // speculative entries must have been consumed by real pulls.
  EXPECT_GT(on.prefetch_useful, 0u);
  EXPECT_LE(on.prefetch_useful, on.prefetch_issued);
}

}  // namespace
}  // namespace zombie
