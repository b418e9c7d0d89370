// ExtractionService unit tests: the facade must behave exactly like the
// hand-inlined (lookup -> extract -> insert) sequence it replaced — same
// vectors, same CacheOutcome stream — and speculation must be bounded,
// cancellable, and invisible in that stream (the first touch of a
// prefetched entry reports kMiss, exactly as if prefetch were off).

#include "featureeng/extraction_service.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "core/task_factory.h"
#include "featureeng/feature_cache.h"
#include "ml/feature_pruner.h"
#include "ml/naive_bayes.h"
#include "obs/metrics.h"

namespace zombie {
namespace {

class ExtractionServiceTest : public ::testing::Test {
 protected:
  ExtractionServiceTest() : task_(MakeTask(TaskKind::kWebCat, 200, 42)) {}

  std::vector<uint32_t> AllDocIds() const {
    std::vector<uint32_t> ids(task_.corpus.size());
    std::iota(ids.begin(), ids.end(), 0u);
    return ids;
  }

  Task task_;
};

TEST_F(ExtractionServiceTest, NoCacheFeaturizeMatchesRawExtract) {
  ExtractionService service(&task_.pipeline);
  EXPECT_FALSE(service.prefetch_enabled());
  for (uint32_t id = 0; id < 10; ++id) {
    CacheOutcome outcome = CacheOutcome::kHit;
    SparseVector got =
        service.Featurize(task_.corpus.doc(id), id, task_.corpus, &outcome);
    EXPECT_EQ(outcome, CacheOutcome::kDisabled);
    EXPECT_EQ(got, task_.pipeline.Extract(task_.corpus.doc(id), task_.corpus));
  }
  // No cache -> nowhere to put speculative results -> enqueue is a no-op.
  EXPECT_EQ(service.EnqueuePrefetch(task_.corpus, AllDocIds()), 0u);
}

TEST_F(ExtractionServiceTest, PrefetchThreadsWithoutCacheStayDisabled) {
  PrefetchOptions prefetch;
  prefetch.threads = 4;
  ExtractionService service(&task_.pipeline, nullptr, prefetch);
  EXPECT_FALSE(service.prefetch_enabled());
  EXPECT_EQ(service.EnqueuePrefetch(task_.corpus, AllDocIds()), 0u);
}

TEST_F(ExtractionServiceTest, CacheMemoizesAndReportsOutcomes) {
  FeatureCache cache;
  ExtractionService service(&task_.pipeline, &cache);
  const Document& doc = task_.corpus.doc(3);
  SparseVector raw = task_.pipeline.Extract(doc, task_.corpus);

  CacheOutcome outcome = CacheOutcome::kDisabled;
  EXPECT_EQ(service.Featurize(doc, 3, task_.corpus, &outcome), raw);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  EXPECT_EQ(service.Featurize(doc, 3, task_.corpus, &outcome), raw);
  EXPECT_EQ(outcome, CacheOutcome::kHit);

  EXPECT_EQ(service.ExtractionCostMicros(doc),
            task_.pipeline.ExtractionCostMicros(doc));
  EXPECT_EQ(service.pipeline_fingerprint(), task_.pipeline.Fingerprint());
}

TEST_F(ExtractionServiceTest, PrefetchedEntryPromotesAsMissThenHits) {
  FeatureCache cache;
  PrefetchOptions prefetch;
  prefetch.threads = 2;
  ExtractionService service(&task_.pipeline, &cache, prefetch);
  ASSERT_TRUE(service.prefetch_enabled());

  EXPECT_EQ(service.EnqueuePrefetch(task_.corpus, {5, 6}), 2u);
  service.DrainPrefetch();
  PrefetchStats stats = service.prefetch_stats();
  EXPECT_EQ(stats.enqueued, 2u);
  EXPECT_EQ(stats.issued, 2u);
  EXPECT_EQ(stats.useful, 0u);
  EXPECT_EQ(stats.wasted(), 2u);
  EXPECT_TRUE(cache.Contains(task_.pipeline.Fingerprint(), 5));

  // First touch: as-if-no-prefetch accounting reports a miss (and marks the
  // speculation useful), but the vector comes from the cache.
  CacheOutcome outcome = CacheOutcome::kDisabled;
  SparseVector got =
      service.Featurize(task_.corpus.doc(5), 5, task_.corpus, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  EXPECT_EQ(got, task_.pipeline.Extract(task_.corpus.doc(5), task_.corpus));
  stats = service.prefetch_stats();
  EXPECT_EQ(stats.useful, 1u);
  EXPECT_EQ(stats.wasted(), 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);

  // Second touch is an ordinary hit, matching the prefetch-off world where
  // the first (miss) touch would have inserted the entry.
  EXPECT_EQ(service.Featurize(task_.corpus.doc(5), 5, task_.corpus, &outcome),
            got);
  EXPECT_EQ(outcome, CacheOutcome::kHit);
  EXPECT_EQ(service.prefetch_stats().useful, 1u);

  // The cache's own hit/miss counters match the prefetch-off sequence:
  // two lookups of doc 5 = one miss, one hit (doc 6 untouched).
  FeatureCacheStats cache_stats = cache.Stats();
  EXPECT_EQ(cache_stats.misses, 1u);
  EXPECT_EQ(cache_stats.hits, 1u);
}

TEST_F(ExtractionServiceTest, EnqueueSkipsAlreadyCachedDocs) {
  FeatureCache cache;
  PrefetchOptions prefetch;
  prefetch.threads = 1;
  ExtractionService service(&task_.pipeline, &cache, prefetch);

  (void)service.Featurize(task_.corpus.doc(7), 7, task_.corpus);
  EXPECT_EQ(service.EnqueuePrefetch(task_.corpus, {7}), 0u);
  PrefetchStats stats = service.prefetch_stats();
  EXPECT_EQ(stats.enqueued, 0u);
  EXPECT_EQ(stats.skipped, 1u);
}

TEST_F(ExtractionServiceTest, EveryCandidateIsEnqueuedOrSkipped) {
  FeatureCache cache;
  PrefetchOptions prefetch;
  prefetch.threads = 2;
  ExtractionService service(&task_.pipeline, &cache, prefetch);

  std::vector<uint32_t> ids = AllDocIds();
  size_t submitted = service.EnqueuePrefetch(task_.corpus, ids);
  service.DrainPrefetch();
  PrefetchStats stats = service.prefetch_stats();
  EXPECT_EQ(stats.enqueued, submitted);
  // The cap admits at least the first candidate (nothing outstanding yet).
  EXPECT_GE(stats.enqueued, 1u);
  EXPECT_EQ(stats.enqueued + stats.skipped, ids.size());
  // Distinct ids, no competing writers, no cancel: every enqueued task
  // created its entry.
  EXPECT_EQ(stats.issued, stats.enqueued);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST_F(ExtractionServiceTest, CancelInvalidatesNotYetStartedTasks) {
  FeatureCache cache;
  PrefetchOptions prefetch;
  prefetch.threads = 1;
  ExtractionService service(&task_.pipeline, &cache, prefetch);

  size_t submitted = service.EnqueuePrefetch(task_.corpus, AllDocIds());
  service.CancelPrefetch();
  service.DrainPrefetch();
  PrefetchStats stats = service.prefetch_stats();
  // Each submitted task either ran to completion before the cancel landed
  // or bailed on the generation check — nothing is lost or double-counted.
  EXPECT_EQ(stats.issued + stats.cancelled, submitted);
}

TEST_F(ExtractionServiceTest, ExportMetricsIsDeltaTracked) {
  FeatureCache cache;
  PrefetchOptions prefetch;
  prefetch.threads = 2;
  ExtractionService service(&task_.pipeline, &cache, prefetch);

  ASSERT_EQ(service.EnqueuePrefetch(task_.corpus, {1, 2, 3}), 3u);
  service.DrainPrefetch();
  (void)service.Featurize(task_.corpus.doc(1), 1, task_.corpus);

  MetricsRegistry metrics;
  // Two exports with no activity in between must not double-count.
  service.ExportMetrics(&metrics);
  service.ExportMetrics(&metrics);
  PrefetchStats stats = service.prefetch_stats();
  EXPECT_EQ(metrics.GetCounter("prefetch.enqueued")->value(), stats.enqueued);
  EXPECT_EQ(metrics.GetCounter("prefetch.issued")->value(), stats.issued);
  EXPECT_EQ(metrics.GetCounter("prefetch.useful")->value(), stats.useful);
  EXPECT_EQ(metrics.GetCounter("prefetch.wasted")->value(), stats.wasted());
  EXPECT_DOUBLE_EQ(metrics.GetGauge("prefetch.hit_rate")->value(),
                   stats.hit_rate());

  // New activity after the first exports shows up as exactly its delta.
  (void)service.Featurize(task_.corpus.doc(2), 2, task_.corpus);
  service.ExportMetrics(&metrics);
  EXPECT_EQ(metrics.GetCounter("prefetch.useful")->value(),
            service.prefetch_stats().useful);
}

// Trains a learner on the first `items` docs while the pruner observes the
// same vectors, then freezes the mask at `items`. Returns the frozen pruner.
FeaturePruner MakeFrozenPruner(const Task& task, size_t items) {
  FeaturePrunerOptions opts = ConservativePruning();
  opts.freeze_after_items = items;
  FeaturePruner pruner(opts);
  NaiveBayesLearner nb;
  for (uint32_t id = 0; id < items; ++id) {
    SparseVector x = task.pipeline.Extract(task.corpus.doc(id), task.corpus);
    pruner.ObserveExample(x);
    nb.Update(x, static_cast<int32_t>(id % 2));
  }
  EXPECT_TRUE(pruner.MaybeFreeze(&nb, items));
  EXPECT_TRUE(pruner.frozen());
  EXPECT_GT(pruner.stats().pruned_features, 0u);
  return pruner;
}

TEST_F(ExtractionServiceTest, PrunerCompactsReturnsButCacheStaysFullDim) {
  FeaturePruner pruner = MakeFrozenPruner(task_, 60);
  FeatureCache cache;
  ExtractionService service(&task_.pipeline, &cache);

  const uint32_t kDoc = 150;  // untouched by the pruner warmup
  const Document& doc = task_.corpus.doc(kDoc);
  SparseVector full = task_.pipeline.Extract(doc, task_.corpus);
  SparseVector compacted = full;
  pruner.CompactInPlace(&compacted);
  ASSERT_LT(compacted.num_nonzero(), full.num_nonzero())
      << "test doc never crossed the mask — pick one that does";

  // Miss path: the return is compacted, the cache entry is not.
  CacheOutcome outcome = CacheOutcome::kDisabled;
  EXPECT_EQ(service.Featurize(doc, kDoc, task_.corpus, &outcome, &pruner),
            compacted);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  auto entry = cache.Lookup(task_.pipeline.Fingerprint(), kDoc);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->features, full)
      << "cache must stay keyed at full dimension (shared across pruned "
         "and unpruned runs)";

  // Hit path: the same full-dimension entry is compacted on the way out.
  EXPECT_EQ(service.Featurize(doc, kDoc, task_.corpus, &outcome, &pruner),
            compacted);
  EXPECT_EQ(outcome, CacheOutcome::kHit);
  EXPECT_EQ(cache.Lookup(task_.pipeline.Fingerprint(), kDoc)->features, full);

  // A null or not-yet-frozen pruner changes nothing.
  EXPECT_EQ(service.Featurize(doc, kDoc, task_.corpus, &outcome), full);
  FeaturePruner unfrozen((FeaturePrunerOptions()));
  EXPECT_EQ(service.Featurize(doc, kDoc, task_.corpus, &outcome, &unfrozen),
            full);
}

TEST_F(ExtractionServiceTest, DestructorDrainsOutstandingSpeculation) {
  FeatureCache cache;
  PrefetchOptions prefetch;
  prefetch.threads = 4;
  {
    ExtractionService service(&task_.pipeline, &cache, prefetch);
    (void)service.EnqueuePrefetch(task_.corpus, AllDocIds());
    // Destruction with tasks in flight must not crash or leak (ASan/TSan
    // legs exercise this); tasks either finish or bail on the generation
    // check bumped by the destructor's cancel.
  }
  SUCCEED();
}

}  // namespace
}  // namespace zombie
