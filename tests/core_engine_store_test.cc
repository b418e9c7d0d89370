// Persistent-store inertness: the store is a wall-clock-only second cache
// tier, so RunResult and the DecisionLog JSONL stream must be
// byte-identical with the store disabled, cold (first run populates it),
// or warm (every extraction served from disk) — and across experiment
// driver thread counts with a shared store. Same discipline as the
// prefetch, holdout-parallelism, and obs inertness tests; the store stats
// assertions keep the comparisons non-vacuous (the warm runs really did
// hit the store).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bandit/epsilon_greedy.h"
#include "core/engine.h"
#include "core/experiment_driver.h"
#include "core/reward.h"
#include "core/task_factory.h"
#include "featureeng/feature_cache.h"
#include "featureeng/persistent_feature_store.h"
#include "gtest/gtest.h"
#include "index/kmeans_grouper.h"
#include "ml/naive_bayes.h"
#include "obs/obs.h"
#include "util/string_util.h"

namespace zombie {
namespace {


class EngineStoreTest : public ::testing::Test {
 protected:
  EngineStoreTest()
      : task_(MakeTask(TaskKind::kWebCat, 900, 42)),
        grouper_(6, 7),
        grouping_(grouper_.Group(task_.corpus)) {}

  static std::string FreshStorePath(const std::string& name) {
    std::string path = testing::TempDir() + "/" + name;
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
    return path;
  }

  struct Outcome {
    std::string fingerprint;
    std::string decisions_jsonl;
  };

  /// One engine run from a cold memory cache, optionally backed by `store`.
  Outcome RunWith(PersistentFeatureStore* store) {
    FeatureCache cache;
    EngineOptions opts;
    opts.seed = 3;
    opts.holdout_size = 150;
    opts.eval_every = 10;
    opts.stop.max_items = 200;
    ObsContext obs;
    opts.obs = &obs;
    ExtractionService service(&task_.pipeline, &cache, {}, nullptr, store);

    NaiveBayesLearner learner;
    LabelReward reward;
    EpsilonGreedyPolicy policy;
    ZombieEngine engine(&task_.corpus, &service, opts);
    RunSpec spec(grouping_, policy, learner, reward);
    RunResult r = engine.Run(spec);

    Outcome out;
    out.fingerprint = r.Fingerprint();
    out.decisions_jsonl = obs.decisions()->ToJsonl();
    return out;
  }

  Task task_;
  KMeansGrouper grouper_;
  GroupingResult grouping_;
};

TEST_F(EngineStoreTest, ByteIdenticalStoreOffColdWarm) {
  Outcome off = RunWith(nullptr);
  std::string path = FreshStorePath("engine_store.zfs");

  Outcome cold;
  {
    auto store = PersistentFeatureStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    cold = RunWith(store.value().get());
    PersistentFeatureStoreStats s = store.value()->Stats();
    EXPECT_GT(s.appends, 0u) << "cold run must populate the store";
    EXPECT_EQ(s.hits, 0u) << "first run cannot hit a fresh store";
  }
  Outcome warm;
  {
    auto store = PersistentFeatureStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    warm = RunWith(store.value().get());
    PersistentFeatureStoreStats s = store.value()->Stats();
    EXPECT_GT(s.hits, 0u) << "warm run must hit the recovered store";
    EXPECT_EQ(s.appends, 0u)
        << "identical run over a warm store has nothing new to append";
  }

  EXPECT_EQ(cold.fingerprint, off.fingerprint)
      << "cold store changed RunResult";
  EXPECT_EQ(warm.fingerprint, off.fingerprint)
      << "warm store changed RunResult";
  EXPECT_EQ(cold.decisions_jsonl, off.decisions_jsonl)
      << "cold store changed the decision log";
  EXPECT_EQ(warm.decisions_jsonl, off.decisions_jsonl)
      << "warm store changed the decision log";
}

TEST_F(EngineStoreTest, ByteIdenticalAcrossDriverThreadCounts) {
  NaiveBayesLearner learner;
  LabelReward reward;
  const std::vector<uint64_t> seeds = {3, 4, 5, 6};

  // One driver pass: `threads` trial workers over a shared memory cache
  // and (optionally) a shared persistent store.
  auto run_grid = [&](size_t threads, PersistentFeatureStore* store) {
    FeatureCache cache;
    ExperimentDriverOptions dopts;
    dopts.num_threads = threads;
    dopts.engine.seed = 3;
    dopts.engine.holdout_size = 150;
    dopts.engine.eval_every = 10;
    dopts.engine.stop.max_items = 200;
    dopts.cache = &cache;
    dopts.store = store;
    ExperimentDriver driver(&task_.corpus, &task_.pipeline, dopts);
    ExperimentGrid grid;
    grid.policies = {PolicyKind::kEpsilonGreedy};
    grid.groupings = {&grouping_};
    grid.rewards = {&reward};
    grid.learners = {&learner};
    grid.seeds = seeds;
    StatusOr<std::vector<TrialResult>> trials = driver.RunGrid(grid);
    EXPECT_TRUE(trials.ok()) << trials.status().ToString();
    std::vector<std::string> prints;
    for (const TrialResult& t : trials.value()) {
      prints.push_back(t.run.Fingerprint());
    }
    return prints;
  };

  std::vector<std::string> baseline = run_grid(1, nullptr);
  std::string path = FreshStorePath("driver_store.zfs");
  {
    auto store = PersistentFeatureStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    std::vector<std::string> cold = run_grid(1, store.value().get());
    EXPECT_EQ(cold, baseline) << "cold store changed driver results";
    EXPECT_GT(store.value()->Stats().appends, 0u);
  }
  for (size_t threads : {1u, 4u}) {
    auto store = PersistentFeatureStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    std::vector<std::string> warm = run_grid(threads, store.value().get());
    EXPECT_EQ(warm, baseline)
        << "warm store changed driver results at threads=" << threads;
    EXPECT_GT(store.value()->Stats().hits, 0u)
        << "warm driver run must hit the store at threads=" << threads;
  }
}

}  // namespace
}  // namespace zombie
