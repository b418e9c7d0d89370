#include "featureeng/feature_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bandit/epsilon_greedy.h"
#include "core/engine.h"
#include "core/task_factory.h"
#include "featureeng/extractors.h"
#include "featureeng/pipeline.h"
#include "index/kmeans_grouper.h"
#include "ml/naive_bayes.h"
#include "ml/sparse_vector.h"
#include "util/thread_pool.h"

namespace zombie {
namespace {

SparseVector Vec(uint32_t index, double value) {
  return SparseVector::FromPairs({{index, value}});
}

FeatureCache::Entry MakeEntry(uint32_t index) {
  return FeatureCache::Entry{Vec(index, 1.0), 1, 1000};
}

// ---------------------------------------------------------------------------
// Basic memo semantics
// ---------------------------------------------------------------------------

TEST(FeatureCacheTest, MissThenHit) {
  FeatureCache cache;
  EXPECT_EQ(cache.Lookup(1, 7), nullptr);
  cache.Insert(1, 7, MakeEntry(3));
  auto hit = cache.Lookup(1, 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->features, Vec(3, 1.0));
  EXPECT_EQ(hit->label, 1);
  EXPECT_EQ(hit->cost_micros, 1000);

  FeatureCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(FeatureCacheTest, KeysAreFingerprintAndDocId) {
  FeatureCache cache;
  cache.Insert(1, 7, MakeEntry(3));
  EXPECT_EQ(cache.Lookup(2, 7), nullptr);  // other revision
  EXPECT_EQ(cache.Lookup(1, 8), nullptr);  // other doc
  EXPECT_NE(cache.Lookup(1, 7), nullptr);
}

TEST(FeatureCacheTest, FirstInsertWinsOnDuplicateKey) {
  FeatureCache cache;
  cache.Insert(1, 7, MakeEntry(3));
  cache.Insert(1, 7, MakeEntry(9));
  auto hit = cache.Lookup(1, 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->features, Vec(3, 1.0));
}

TEST(FeatureCacheTest, ClearEmptiesEntriesAndKeepsCounters) {
  FeatureCache cache;
  cache.Insert(1, 7, MakeEntry(3));
  (void)cache.Lookup(1, 7);
  cache.Clear();
  EXPECT_EQ(cache.Lookup(1, 7), nullptr);
  FeatureCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
}

// ---------------------------------------------------------------------------
// Eviction
// ---------------------------------------------------------------------------

TEST(FeatureCacheTest, TinyCapacityStaysBounded) {
  FeatureCacheOptions opts;
  opts.capacity = 16;
  FeatureCache cache(opts);
  for (uint32_t i = 0; i < 200; ++i) cache.Insert(1, i, MakeEntry(i));
  FeatureCacheStats stats = cache.Stats();
  EXPECT_LE(stats.entries, 16u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.inserts, 200u);
}

TEST(FeatureCacheTest, EvictionPrefersStaleEntries) {
  FeatureCacheOptions opts;
  opts.capacity = 16;
  FeatureCache cache(opts);
  for (uint32_t i = 0; i < 16; ++i) cache.Insert(1, i, MakeEntry(i));
  // Touch doc 0 repeatedly so its recency tick is the freshest.
  for (int i = 0; i < 8; ++i) ASSERT_NE(cache.Lookup(1, 0), nullptr);
  // Overflow: the batch evictor drops the stalest ~1/8, never doc 0.
  for (uint32_t i = 16; i < 24; ++i) cache.Insert(1, i, MakeEntry(i));
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
}

TEST(FeatureCacheTest, HitsKeepSharedEntryAliveAcrossEviction) {
  FeatureCacheOptions opts;
  opts.capacity = 16;
  FeatureCache cache(opts);
  cache.Insert(1, 0, MakeEntry(42));
  auto pinned = cache.Lookup(1, 0);
  ASSERT_NE(pinned, nullptr);
  for (uint32_t i = 1; i < 200; ++i) cache.Insert(1, i, MakeEntry(i));
  // Whatever the cache evicted, our shared_ptr still owns the entry.
  EXPECT_EQ(pinned->features, Vec(42, 1.0));
}

// ---------------------------------------------------------------------------
// Speculative entries (prefetch support; see ExtractionService)
// ---------------------------------------------------------------------------

TEST(FeatureCacheSpeculativeTest, FirstTouchPromotesAndCountsAsMiss) {
  FeatureCache cache;
  EXPECT_TRUE(cache.InsertSpeculative(1, 7, MakeEntry(3)));
  EXPECT_TRUE(cache.Contains(1, 7));

  bool first_touch = false;
  auto got = cache.LookupForExtraction(1, 7, &first_touch);
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(first_touch);
  EXPECT_EQ(got->features, Vec(3, 1.0));
  // As-if-no-prefetch accounting: the first touch is the miss the caller
  // would have seen without speculation.
  FeatureCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // Promoted: later touches are ordinary hits.
  first_touch = true;
  got = cache.LookupForExtraction(1, 7, &first_touch);
  ASSERT_NE(got, nullptr);
  EXPECT_FALSE(first_touch);
  stats = cache.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(FeatureCacheSpeculativeTest, LookupForExtractionOnRegularEntryIsAHit) {
  FeatureCache cache;
  cache.Insert(1, 7, MakeEntry(3));
  bool first_touch = true;
  auto got = cache.LookupForExtraction(1, 7, &first_touch);
  ASSERT_NE(got, nullptr);
  EXPECT_FALSE(first_touch);
  EXPECT_EQ(cache.Stats().hits, 1u);
}

TEST(FeatureCacheSpeculativeTest, AbsentKeyIsAMissWithoutFirstTouch) {
  FeatureCache cache;
  bool first_touch = true;
  EXPECT_EQ(cache.LookupForExtraction(1, 7, &first_touch), nullptr);
  EXPECT_FALSE(first_touch);
  EXPECT_EQ(cache.Stats().misses, 1u);
}

TEST(FeatureCacheSpeculativeTest, NeverDowngradesAnExistingEntry) {
  FeatureCache cache;
  cache.Insert(1, 7, MakeEntry(3));
  EXPECT_FALSE(cache.InsertSpeculative(1, 7, MakeEntry(9)));
  bool first_touch = true;
  auto got = cache.LookupForExtraction(1, 7, &first_touch);
  ASSERT_NE(got, nullptr);
  EXPECT_FALSE(first_touch);          // still a committed entry
  EXPECT_EQ(got->features, Vec(3, 1.0));  // first writer won
}

TEST(FeatureCacheSpeculativeTest, InsertCommitsARacingSpeculativeEntry) {
  // A prefetch worker's insert lands between the caller's miss and the
  // caller's own Insert. The caller already accounted that miss, so its
  // next touch must be an ordinary hit, exactly as without prefetch.
  FeatureCache cache;
  EXPECT_TRUE(cache.InsertSpeculative(1, 7, MakeEntry(3)));
  cache.Insert(1, 7, MakeEntry(3));
  bool first_touch = true;
  auto got = cache.LookupForExtraction(1, 7, &first_touch);
  ASSERT_NE(got, nullptr);
  EXPECT_FALSE(first_touch);
  FeatureCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(FeatureCacheSpeculativeTest, RefusedAtCapacityAndNeverEvicts) {
  FeatureCacheOptions opts;
  opts.capacity = 16;
  FeatureCache cache(opts);
  for (uint32_t i = 0; i < 16; ++i) cache.Insert(1, i, MakeEntry(i));
  // Speculation must not displace committed entries: a full cache rejects
  // speculative inserts instead of evicting.
  EXPECT_FALSE(cache.InsertSpeculative(1, 100, MakeEntry(100)));
  FeatureCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 16u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_FALSE(cache.Contains(1, 100));
  for (uint32_t i = 0; i < 16; ++i) EXPECT_TRUE(cache.Contains(1, i));
}

TEST(FeatureCacheSpeculativeTest, ContainsTouchesNoCounters) {
  FeatureCache cache;
  cache.Insert(1, 7, MakeEntry(3));
  EXPECT_TRUE(cache.Contains(1, 7));
  EXPECT_FALSE(cache.Contains(1, 8));
  FeatureCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

// ---------------------------------------------------------------------------
// Pipeline fingerprints
// ---------------------------------------------------------------------------

FeaturePipeline MakePipeline(const std::string& name, uint32_t dim,
                             uint64_t salt) {
  FeaturePipeline p(name);
  p.Add(std::make_unique<HashedBagOfWordsExtractor>(dim, true, salt));
  p.Add(std::make_unique<KeywordExtractor>(std::vector<uint32_t>{1, 2, 3}));
  return p;
}

TEST(FingerprintTest, IdenticalConfigsShareFingerprint) {
  EXPECT_EQ(MakePipeline("a", 4096, 0).Fingerprint(),
            MakePipeline("a", 4096, 0).Fingerprint());
}

TEST(FingerprintTest, DisplayNameIsCosmetic) {
  // Same feature code under a different revision label must share cache
  // entries (re-run sessions rename revisions freely).
  EXPECT_EQ(MakePipeline("v1", 4096, 0).Fingerprint(),
            MakePipeline("v2-renamed", 4096, 0).Fingerprint());
}

TEST(FingerprintTest, BehaviorChangesInvalidate) {
  uint64_t base = MakePipeline("a", 4096, 0).Fingerprint();
  EXPECT_NE(base, MakePipeline("a", 8192, 0).Fingerprint());  // dimension
  EXPECT_NE(base, MakePipeline("a", 4096, 5).Fingerprint());  // hash salt

  FeaturePipeline other("a");  // different keyword list
  other.Add(std::make_unique<HashedBagOfWordsExtractor>(4096, true, 0));
  other.Add(std::make_unique<KeywordExtractor>(std::vector<uint32_t>{1, 2}));
  EXPECT_NE(base, other.Fingerprint());

  FeaturePipeline unnormalized = MakePipeline("a", 4096, 0);
  unnormalized.set_l2_normalize(false);
  EXPECT_NE(base, unnormalized.Fingerprint());
}

TEST(FingerprintTest, ExtractorOrderMatters) {
  FeaturePipeline ab("p");
  ab.Add(std::make_unique<HashedBagOfWordsExtractor>(4096));
  ab.Add(std::make_unique<HashedBigramExtractor>(4096));
  FeaturePipeline ba("p");
  ba.Add(std::make_unique<HashedBigramExtractor>(4096));
  ba.Add(std::make_unique<HashedBagOfWordsExtractor>(4096));
  EXPECT_NE(ab.Fingerprint(), ba.Fingerprint());
}

TEST(FingerprintTest, ExpensiveWrapperFoldsMultiplier) {
  auto make = [](double mult) {
    FeaturePipeline p("p");
    p.Add(std::make_unique<ExpensiveWrapperExtractor>(
        std::make_unique<HashedBagOfWordsExtractor>(4096), mult));
    return p.Fingerprint();
  };
  EXPECT_EQ(make(8.0), make(8.0));
  EXPECT_NE(make(8.0), make(9.0));
}

// ---------------------------------------------------------------------------
// Engine equivalence: the cache may only change wall-clock time
// ---------------------------------------------------------------------------

TEST(FeatureCacheEngineTest, CachedRunsAreByteIdentical) {
  Task task = MakeTask(TaskKind::kWebCat, 1500, 42);
  KMeansGrouper grouper(8, 3);
  GroupingResult grouping = grouper.Group(task.corpus);
  EngineOptions opts;
  opts.seed = 7;
  opts.holdout_size = 100;
  opts.eval_every = 20;
  opts.stop.min_items = 100;

  EpsilonGreedyPolicy policy;
  NaiveBayesLearner nb;
  LabelReward reward;

  RunResult plain = ZombieEngine(&task.corpus, &task.pipeline, opts)
                        .Run(RunSpec(grouping, policy, nb, reward));

  FeatureCache cache;
  ExtractionService service(&task.pipeline, &cache);
  // Run twice: the first populates (all misses), the second replays from a
  // warm cache. Both must match the cache-less run exactly.
  for (int round = 0; round < 2; ++round) {
    RunResult r = ZombieEngine(&task.corpus, &service, opts)
                      .Run(RunSpec(grouping, policy, nb, reward));
    EXPECT_EQ(plain.items_processed, r.items_processed) << "round " << round;
    EXPECT_EQ(plain.loop_virtual_micros, r.loop_virtual_micros)
        << "round " << round;
    EXPECT_EQ(plain.final_quality, r.final_quality) << "round " << round;
    ASSERT_EQ(plain.curve.size(), r.curve.size()) << "round " << round;
    for (size_t i = 0; i < plain.curve.size(); ++i) {
      EXPECT_EQ(plain.curve.point(i).quality, r.curve.point(i).quality);
      EXPECT_EQ(plain.curve.point(i).virtual_micros,
                r.curve.point(i).virtual_micros);
    }
  }
  FeatureCacheStats stats = cache.Stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.entries, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency (run under -DZOMBIE_SANITIZE=thread this is the TSan
// regression test for the shared-lock read path + batch eviction)
// ---------------------------------------------------------------------------

TEST(FeatureCacheStressTest, ConcurrentMixedLookupInsert) {
  FeatureCacheOptions opts;
  opts.capacity = 64;  // small: forces constant eviction under contention
  FeatureCache cache(opts);
  ThreadPool pool(8);
  constexpr size_t kWorkers = 16;
  constexpr uint32_t kDocs = 256;
  ParallelFor(&pool, kWorkers, [&cache](size_t w) {
    for (uint32_t i = 0; i < kDocs; ++i) {
      uint32_t doc = (i * 7 + static_cast<uint32_t>(w) * 13) % kDocs;
      if (auto hit = cache.Lookup(1, doc)) {
        // Entries are immutable; a hit must always carry its own doc id.
        ASSERT_EQ(hit->features, Vec(doc, 1.0));
      } else {
        cache.Insert(1, doc, MakeEntry(doc));
      }
    }
  });
  FeatureCacheStats stats = cache.Stats();
  EXPECT_LE(stats.entries, 64u);
  EXPECT_EQ(stats.hits + stats.misses, kWorkers * kDocs);
}

}  // namespace
}  // namespace zombie
