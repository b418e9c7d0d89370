#include "core/session.h"

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/engine.h"
#include "core/reward.h"
#include "data/webcat_generator.h"
#include "featureeng/revision_script.h"
#include "index/kmeans_grouper.h"
#include "ml/naive_bayes.h"
#include "util/random.h"

namespace zombie {
namespace {

RevisionScript ShortScript() {
  // Three cheap revisions keep the test fast while exercising the loop.
  RevisionScript script = MakeWebCatRevisionScript();
  RevisionScript out;
  for (size_t i = 0; i < 3; ++i) {
    size_t idx = i;
    out.Add(script.name(idx), [script = MakeWebCatRevisionScript(),
                               idx](const Corpus& c) {
      return script.BuildPipeline(idx, c);
    });
  }
  return out;
}

struct Fixture {
  Fixture() {
    WebCatOptions opts;
    opts.num_documents = 1500;
    opts.seed = 9;
    corpus = GenerateWebCatCorpus(opts);
  }

  EngineOptions Options() {
    EngineOptions o;
    o.seed = 4;
    o.holdout_size = 100;
    o.eval_every = 25;
    o.stop.min_items = 100;
    return o;
  }

  Corpus corpus;
};

TEST(SessionTest, FullScanRunsEveryRevisionExhaustively) {
  Fixture f;
  NaiveBayesLearner nb;
  LabelReward reward;
  SessionResult s = RunSession(f.corpus, ShortScript(),
                               SessionMode::kFullScan, nullptr, nb, reward,
                               f.Options());
  ASSERT_EQ(s.revisions.size(), 3u);
  EXPECT_EQ(s.index_virtual_micros, 0);
  for (const auto& rev : s.revisions) {
    EXPECT_EQ(rev.stop_reason, StopReason::kExhausted);
    EXPECT_EQ(rev.items_processed, 1400u);  // corpus minus holdout
    EXPECT_GT(rev.virtual_micros, 0);
  }
  EXPECT_EQ(s.mode, SessionMode::kFullScan);
}

TEST(SessionTest, FullScanOutcomeMatchesFullCurveBaseline) {
  // The session scores each full-scan revision's holdout once, after the
  // loop; every outcome field must still equal the full-curve baseline's.
  Fixture f;
  NaiveBayesLearner nb;
  LabelReward reward;
  RevisionScript script = ShortScript();
  const EngineOptions options = f.Options();
  SessionResult s = RunSession(f.corpus, script, SessionMode::kFullScan,
                               nullptr, nb, reward, options);
  ASSERT_EQ(s.revisions.size(), script.size());
  for (size_t r = 0; r < script.size(); ++r) {
    SCOPED_TRACE(script.name(r));
    FeaturePipeline pipeline = script.BuildPipeline(r, f.corpus);
    EngineOptions opts = options;
    opts.seed = HashCombine(options.seed, r);
    ZombieEngine engine(&f.corpus, &pipeline, FullScanOptions(opts));
    RunResult run = RunRandomBaseline(engine, nb);
    ASSERT_GT(run.curve.size(), 2u);
    const RevisionOutcome& rev = s.revisions[r];
    EXPECT_EQ(rev.revision_name, script.name(r));
    EXPECT_EQ(rev.items_processed, run.items_processed);
    EXPECT_EQ(rev.virtual_micros, run.total_virtual_micros());
    EXPECT_EQ(rev.final_quality, run.final_quality);
    EXPECT_EQ(rev.stop_reason, run.stop_reason);
  }
}

TEST(SessionTest, ZombieSessionChargesIndexOnceAndStopsEarly) {
  Fixture f;
  NaiveBayesLearner nb;
  LabelReward reward;
  KMeansGrouper grouper(8, 2);
  SessionResult s = RunSession(f.corpus, ShortScript(), SessionMode::kZombie,
                               &grouper, nb, reward, f.Options());
  EXPECT_GT(s.index_virtual_micros, 0);
  int64_t revision_total = 0;
  for (const auto& rev : s.revisions) {
    EXPECT_LE(rev.items_processed, 1400u);
    revision_total += rev.virtual_micros;
  }
  EXPECT_EQ(s.total_virtual_micros, revision_total + s.index_virtual_micros);
}

TEST(SessionTest, ZombieFasterThanFullScanOnThisWorkload) {
  Fixture f;
  NaiveBayesLearner nb;
  LabelReward reward;
  KMeansGrouper grouper(8, 2);
  SessionResult full = RunSession(f.corpus, ShortScript(),
                                  SessionMode::kFullScan, nullptr, nb, reward,
                                  f.Options());
  SessionResult fast = RunSession(f.corpus, ShortScript(),
                                  SessionMode::kZombie, &grouper, nb, reward,
                                  f.Options());
  EXPECT_LT(fast.total_virtual_micros, full.total_virtual_micros);
}

TEST(SessionTest, BestQualityIsMaxOverRevisions) {
  Fixture f;
  NaiveBayesLearner nb;
  LabelReward reward;
  SessionResult s = RunSession(f.corpus, ShortScript(),
                               SessionMode::kFullScan, nullptr, nb, reward,
                               f.Options());
  double max_q = 0.0;
  for (const auto& rev : s.revisions) max_q = std::max(max_q, rev.final_quality);
  EXPECT_DOUBLE_EQ(s.best_quality, max_q);
}

TEST(SessionTest, WarmStartSessionRunsAndSavesItems) {
  Fixture f;
  NaiveBayesLearner nb;
  LabelReward reward;
  KMeansGrouper grouper(8, 2);
  SessionResult cold = RunSession(f.corpus, ShortScript(),
                                  SessionMode::kZombie, &grouper, nb, reward,
                                  f.Options(), /*warm_start_bandit=*/false);
  KMeansGrouper grouper2(8, 2);
  SessionResult warm = RunSession(f.corpus, ShortScript(),
                                  SessionMode::kZombie, &grouper2, nb, reward,
                                  f.Options(), /*warm_start_bandit=*/true);
  ASSERT_EQ(warm.revisions.size(), cold.revisions.size());
  // Warm starting never changes revision 0 (nothing to inherit) and must
  // produce comparable quality overall.
  EXPECT_EQ(warm.revisions[0].items_processed,
            cold.revisions[0].items_processed);
  EXPECT_GT(warm.best_quality, 0.8 * cold.best_quality);
}

TEST(SessionTest, ToStringMentionsModeAndTotals) {
  SessionResult s;
  s.mode = SessionMode::kZombie;
  std::string str = s.ToString();
  EXPECT_NE(str.find("zombie"), std::string::npos);
  EXPECT_STREQ(SessionModeName(SessionMode::kFullScan), "fullscan");
}

TEST(SessionDeathTest, ZombieModeNeedsGrouper) {
  Fixture f;
  NaiveBayesLearner nb;
  LabelReward reward;
  EXPECT_DEATH(RunSession(f.corpus, ShortScript(), SessionMode::kZombie,
                          nullptr, nb, reward, f.Options()),
               "grouper");
}

}  // namespace
}  // namespace zombie
