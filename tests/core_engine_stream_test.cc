// Streaming ingestion engine contract (data/corpus_source.h +
// index/incremental_grouper.h + engine.cc):
//  - spec.stream == nullptr is the offline engine, and an empty (drained)
//    schedule over the full corpus is byte-identical to it;
//  - streaming runs are byte-identical across holdout-eval thread counts
//    and cache modes (fingerprints; decision logs within a cache mode) and
//    across repeated invocations of one spec;
//  - dynamic arms (k-means splits) appear in result.arms, in the bandit,
//    in the "kind": "ingest" DecisionLog records, and in ingest.* metrics,
//    all telling one consistent story;
//  - when every arm is exhausted but the stream is not drained, the engine
//    fast-forwards virtual time to the next arrival instead of stopping:
//    kExhausted means base AND stream fully consumed;
//  - all eight shipped policies survive mid-run arm growth.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bandit/epsilon_greedy.h"
#include "core/engine.h"
#include "core/reward.h"
#include "core/task_factory.h"
#include "data/corpus_source.h"
#include "featureeng/feature_cache.h"
#include "gtest/gtest.h"
#include "index/incremental_grouper.h"
#include "index/kmeans_grouper.h"
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

class EngineStreamTest : public ::testing::Test {
 protected:
  EngineStreamTest() : task_(MakeTask(TaskKind::kWebCat, 900, 42)) {}

  struct Outcome {
    std::string fingerprint;
    std::string decisions_jsonl;
    size_t num_arms = 0;
    uint64_t ingest_windows = 0;
    uint64_t ingest_docs = 0;
    uint64_t ingest_new_arms = 0;
    uint64_t ingest_splits = 0;
    StopReason stop = StopReason::kExhausted;
    size_t items = 0;
  };

  /// Runs one streaming (or, with stream == nullptr, offline) spec on a
  /// fresh engine/cache/obs. The grouper prototype is cloned by the engine,
  /// so one primed `igrouper` serves every run of a test identically.
  Outcome RunWith(const GroupingResult& grouping,
                  const ScheduledCorpusSource* stream,
                  const IncrementalGrouper* igrouper, bool use_cache = true,
                  size_t eval_threads = 1, size_t max_items = 250,
                  bool early_stops = true) {
    FeatureCache cache;
    EngineOptions opts;
    opts.seed = 3;
    opts.holdout_size = 120;
    opts.eval_every = 10;
    opts.stop.max_items = max_items;
    if (!early_stops) {
      opts.stop.plateau_enabled = false;
      opts.stop.decline_enabled = false;
    }
    opts.holdout_eval_threads = eval_threads;
    ObsContext obs;
    opts.obs = &obs;
    ExtractionService service(&task_.pipeline, use_cache ? &cache : nullptr);

    EpsilonGreedyPolicy policy;
    LabelReward reward;
    NaiveBayesLearner nb;
    ZombieEngine engine(&task_.corpus, &service, opts);
    RunSpec spec(grouping, policy, nb, reward);
    spec.stream = stream;
    spec.incremental_grouper = igrouper;
    RunResult r = engine.Run(spec);

    Outcome out;
    out.fingerprint = Fingerprint(r);
    out.decisions_jsonl = obs.decisions()->ToJsonl();
    out.num_arms = r.arms.size();
    out.ingest_windows = static_cast<uint64_t>(
        obs.metrics()->GetCounter("ingest.windows")->value());
    out.ingest_docs = static_cast<uint64_t>(
        obs.metrics()->GetCounter("ingest.docs")->value());
    out.ingest_new_arms = static_cast<uint64_t>(
        obs.metrics()->GetCounter("ingest.new_arms")->value());
    out.ingest_splits = static_cast<uint64_t>(
        obs.metrics()->GetCounter("ingest.splits")->value());
    out.stop = r.stop_reason;
    out.items = r.items_processed;
    return out;
  }

  Task task_;
};

TEST_F(EngineStreamTest, DrainedStreamIsByteIdenticalToOffline) {
  // Same base grouping either way; the streaming run's schedule is empty
  // (base == corpus), so the ingestion machinery must be a perfect no-op.
  KMeansGrouperOptions kopts;
  kopts.num_groups = 6;
  kopts.seed = 7;
  KMeansGrouper igrouper(kopts);
  GroupingResult grouping =
      igrouper.GroupBase(task_.corpus, task_.corpus.size());
  ScheduledCorpusSource source(&task_.corpus, task_.corpus.size(), {});

  Outcome offline = RunWith(grouping, nullptr, nullptr);
  Outcome streaming = RunWith(grouping, &source, &igrouper);
  EXPECT_EQ(streaming.fingerprint, offline.fingerprint);
  EXPECT_EQ(streaming.decisions_jsonl, offline.decisions_jsonl);
  EXPECT_EQ(streaming.ingest_windows, 0u);
  EXPECT_EQ(streaming.decisions_jsonl.find("\"kind\": \"ingest\""),
            std::string::npos);
}

TEST_F(EngineStreamTest, ByteIdenticalAcrossWallClockKnobsAndRepeats) {
  KMeansGrouperOptions kopts;
  kopts.num_groups = 6;
  kopts.seed = 7;
  kopts.split_threshold = 16;  // force mid-run splits
  KMeansGrouper igrouper(kopts);
  const size_t base = 600;
  GroupingResult grouping = igrouper.GroupBase(task_.corpus, base);
  ArrivalScheduleOptions sched;
  sched.docs_per_virtual_second = 50.0;
  ScheduledCorpusSource source(
      &task_.corpus, base, BuildArrivalSchedule(task_.corpus, base, sched));

  Outcome first = RunWith(grouping, &source, &igrouper);
  // Non-vacuity: arrivals landed and new arms were born.
  ASSERT_GT(first.ingest_windows, 0u);
  ASSERT_GT(first.ingest_docs, 0u);
  ASSERT_GT(first.ingest_new_arms, 0u);

  Outcome repeat = RunWith(grouping, &source, &igrouper);
  EXPECT_EQ(repeat.fingerprint, first.fingerprint);
  EXPECT_EQ(repeat.decisions_jsonl, first.decisions_jsonl);

  struct Knob {
    const char* name;
    bool use_cache;
    size_t eval_threads;
  };
  for (const Knob& k :
       {Knob{"4 eval threads", true, 4}, Knob{"no cache", false, 1},
        Knob{"no cache + threads", false, 4}}) {
    Outcome run = RunWith(grouping, &source, &igrouper, k.use_cache,
                          k.eval_threads);
    EXPECT_EQ(run.fingerprint, first.fingerprint) << k.name;
    EXPECT_EQ(run.ingest_windows, first.ingest_windows) << k.name;
    EXPECT_EQ(run.ingest_new_arms, first.ingest_new_arms) << k.name;
    // Decision records carry a "cache" outcome field that legitimately
    // differs with the cache off, so JSONL byte-equality is asserted only
    // between cache-mode-matched runs.
    if (k.use_cache) {
      EXPECT_EQ(run.decisions_jsonl, first.decisions_jsonl) << k.name;
    }
  }
}

TEST_F(EngineStreamTest, DynamicArmsAppearEverywhereConsistently) {
  KMeansGrouperOptions kopts;
  kopts.num_groups = 4;
  kopts.seed = 7;
  kopts.split_threshold = 8;  // split eagerly
  KMeansGrouper igrouper(kopts);
  const size_t base = 600;
  GroupingResult grouping = igrouper.GroupBase(task_.corpus, base);
  const size_t base_arms = grouping.num_groups();
  ScheduledCorpusSource source(
      &task_.corpus, base,
      BuildArrivalSchedule(task_.corpus, base, ArrivalScheduleOptions{}));

  Outcome run = RunWith(grouping, &source, &igrouper);
  ASSERT_GT(run.ingest_new_arms, 0u);
  // result.arms covers the grown arm set, one entry per group.
  EXPECT_EQ(run.num_arms, base_arms + run.ingest_new_arms);
  // k-means only ever grows by splitting, so the two counters agree.
  EXPECT_EQ(run.ingest_splits, run.ingest_new_arms);
  // The DecisionLog carries matching ingest records.
  EXPECT_NE(run.decisions_jsonl.find("\"kind\": \"ingest\""),
            std::string::npos);
  const std::string total = StrFormat(
      "\"total_arms\": %llu",
      static_cast<unsigned long long>(base_arms + run.ingest_new_arms));
  EXPECT_NE(run.decisions_jsonl.find(total), std::string::npos)
      << run.decisions_jsonl;
}

TEST_F(EngineStreamTest, StarvationFastForwardsToNextArrival) {
  // A tiny offline base that the loop drains almost immediately, with the
  // whole suffix arriving slowly afterwards: every arm goes quiet while
  // the stream still holds documents. The engine must advance virtual time
  // to the next arrival and keep going — kExhausted only when the base AND
  // the stream are fully consumed.
  KMeansGrouperOptions kopts;
  kopts.num_groups = 3;
  kopts.seed = 7;
  KMeansGrouper igrouper(kopts);
  const size_t base = 60;
  GroupingResult grouping = igrouper.GroupBase(task_.corpus, base);
  ArrivalScheduleOptions sched;
  sched.docs_per_virtual_second = 2.0;  // one arrival per 500ms virtual
  ScheduledCorpusSource source(
      &task_.corpus, base, BuildArrivalSchedule(task_.corpus, base, sched));

  Outcome run = RunWith(grouping, &source, &igrouper, /*use_cache=*/true,
                        /*eval_threads=*/1, /*max_items=*/10000,
                        /*early_stops=*/false);
  EXPECT_EQ(run.stop, StopReason::kExhausted);
  // Every one of the 840 arrivals was ingested...
  EXPECT_EQ(run.ingest_docs, task_.corpus.size() - base);
  // ...and trained on: far more items than the base alone could supply.
  EXPECT_GT(run.items, base);
  EXPECT_GT(run.ingest_windows, 1u)
      << "slow arrivals must spread over multiple ingestion windows";

  // Determinism holds through starvation fast-forwards too.
  Outcome repeat = RunWith(grouping, &source, &igrouper, /*use_cache=*/true,
                           /*eval_threads=*/4, /*max_items=*/10000,
                           /*early_stops=*/false);
  EXPECT_EQ(repeat.fingerprint, run.fingerprint);
}

TEST_F(EngineStreamTest, AllPoliciesSurviveMidRunArmGrowth) {
  constexpr PolicyKind kAllKinds[] = {
      PolicyKind::kRoundRobin,    PolicyKind::kUniformRandom,
      PolicyKind::kEpsilonGreedy, PolicyKind::kUcb1,
      PolicyKind::kSlidingUcb,    PolicyKind::kThompson,
      PolicyKind::kExp3,          PolicyKind::kSoftmax,
  };
  KMeansGrouperOptions kopts;
  kopts.num_groups = 4;
  kopts.seed = 7;
  kopts.split_threshold = 8;
  KMeansGrouper igrouper(kopts);
  const size_t base = 600;
  GroupingResult grouping = igrouper.GroupBase(task_.corpus, base);
  ScheduledCorpusSource source(
      &task_.corpus, base,
      BuildArrivalSchedule(task_.corpus, base, ArrivalScheduleOptions{}));

  for (PolicyKind kind : kAllKinds) {
    auto run_once = [&]() {
      FeatureCache cache;
      EngineOptions opts;
      opts.seed = 3;
      opts.holdout_size = 120;
      opts.eval_every = 10;
      opts.stop.max_items = 250;
      ObsContext obs;
      opts.obs = &obs;
      ExtractionService service(&task_.pipeline, &cache);
      auto policy = MakePolicy(kind);
      LabelReward reward;
      NaiveBayesLearner nb;
      ZombieEngine engine(&task_.corpus, &service, opts);
      RunSpec spec(grouping, *policy, nb, reward);
      spec.stream = &source;
      spec.incremental_grouper = &igrouper;
      RunResult r = engine.Run(spec);
      EXPECT_GE(r.arms.size(), grouping.num_groups())
          << PolicyKindName(kind);
      EXPECT_GT(r.items_processed, 0u) << PolicyKindName(kind);
      return Fingerprint(r);
    };
    std::string first = run_once();
    EXPECT_EQ(run_once(), first)
        << PolicyKindName(kind) << " streaming run not deterministic";
  }
}

}  // namespace
}  // namespace zombie
