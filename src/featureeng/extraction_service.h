#ifndef ZOMBIE_FEATUREENG_EXTRACTION_SERVICE_H_
#define ZOMBIE_FEATUREENG_EXTRACTION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "data/corpus.h"
#include "featureeng/feature_cache.h"
#include "featureeng/pipeline.h"
#include "ml/sparse_vector.h"
#include "obs/decision_log.h"
#include "obs/trace.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace zombie {

class FeaturePruner;
class MetricsRegistry;
class PersistentFeatureStore;

/// Bounds for speculative prefetch extraction. All limits are hard caps;
/// speculation beyond them is silently dropped (never queued unbounded).
struct PrefetchOptions {
  /// Background extraction workers. 0 disables speculation entirely — the
  /// service then never creates a pool and EnqueuePrefetch is a no-op.
  size_t threads = 0;
  /// Top-scoring arms considered per speculation window.
  size_t max_arms = 4;
};

/// Upcoming unprocessed documents prefetched per ranked arm per window.
inline constexpr size_t kPrefetchItemsPerArm = 4;
/// Maximum outstanding (queued + running) speculative extractions;
/// candidates past the cap are dropped for that window.
inline constexpr size_t kPrefetchQueueCap = 64;

/// Cumulative speculation counters (since service construction).
struct PrefetchStats {
  /// Tasks handed to the worker pool.
  uint64_t enqueued = 0;
  /// Speculative extractions that ran and created a new cache entry.
  uint64_t issued = 0;
  /// Speculative entries later consumed by a real extraction request.
  uint64_t useful = 0;
  /// Tasks dropped by CancelPrefetch before running.
  uint64_t cancelled = 0;
  /// Candidates skipped at enqueue (already cached / queue cap) plus tasks
  /// whose insert lost to a concurrent writer.
  uint64_t skipped = 0;

  /// Speculative work that has not (yet) paid off.
  uint64_t wasted() const { return issued >= useful ? issued - useful : 0; }
  /// useful / issued, or 0.0 before the first issued extraction.
  double hit_rate() const {
    return issued == 0 ? 0.0
                       : static_cast<double>(useful) /
                             static_cast<double>(issued);
  }
};

/// The single entry point for feature extraction: a facade over the
/// pipeline, the optional FeatureCache, an optional PersistentFeatureStore,
/// and an optional speculative prefetch pool. Everything that featurizes a
/// document — engine inner loop, holdout setup, experiment driver, benches
/// — goes through Featurize() so cache policy and speculation live in
/// exactly one place (enforced by zombie_lint's
/// no-raw-extract-outside-service rule).
///
/// Tiering: the in-memory FeatureCache is the first tier, the persistent
/// store the second. A memory miss consults the store; a store hit fills
/// the memory cache with the stored entry (the same non-speculative Insert
/// the store-off world would have performed after extracting) and is still
/// reported as CacheOutcome::kMiss — the store, like prefetch, only ever
/// short-circuits wall-clock extraction work, never accounting. A
/// miss-in-both extracts and writes through to both tiers.
///
/// Ownership contract: the service *borrows* the pipeline, cache, and
/// store; all must outlive it, and the corpus passed to
/// Featurize/EnqueuePrefetch must stay alive until the service is
/// destroyed (prefetch workers read it asynchronously). The service *owns*
/// its worker pool; the destructor cancels outstanding speculation and
/// drains the workers before returning, so no task outlives the service.
///
/// Equivalence contract (extends the FeatureCache contract): speculation is
/// wall-clock-only. Prefetched entries are inserted speculatively and
/// promoted on first touch with as-if-no-prefetch accounting (see
/// FeatureCache::LookupForExtraction). A worker's insert can also land
/// between a caller's miss and that caller's own Insert; the Insert then
/// promotes the entry, so the next touch is the hit it would have been
/// without prefetch (see FeatureCache::Insert). So the CacheOutcome sequence
/// reported by Featurize — and therefore RunResult, DecisionLog JSONL, and
/// all virtual-time numbers — is byte-identical with prefetch on or off at
/// any thread count. Speculative inserts never evict (a full cache rejects
/// them), so the guarantee holds whenever the cache stays within capacity
/// for the run's working set — the normal configuration (default capacity
/// 256k entries vs corpus-sized working sets). An undersized cache that
/// evicts mid-run voids the guarantee: speculative entries occupy capacity
/// and can shift which committed entries later Inserts evict, changing
/// logged hit/miss outcomes. Size the cache to the corpus when exact
/// replay of decision logs matters.
///
/// Thread safety: Featurize and EnqueuePrefetch may be called from multiple
/// threads concurrently (the experiment driver shares one service across
/// trial workers); the pipeline is stateless and the cache is internally
/// synchronized.
class ExtractionService {
 public:
  /// `trace`, when non-null, receives a "prefetch.extract" span per
  /// speculative extraction; it must outlive the service.
  explicit ExtractionService(const FeaturePipeline* pipeline,
                             FeatureCache* cache = nullptr,
                             PrefetchOptions prefetch = {},
                             TraceRecorder* trace = nullptr,
                             PersistentFeatureStore* store = nullptr);

  /// Cancels outstanding speculation and drains the worker pool.
  ~ExtractionService();

  ExtractionService(const ExtractionService&) = delete;
  ExtractionService& operator=(const ExtractionService&) = delete;

  /// Featurizes one document, memoized through the cache when one is
  /// attached. `outcome` (optional) reports the cache interaction exactly
  /// as it would have happened without prefetch: kDisabled (no cache),
  /// kHit, or kMiss — a speculative entry's first touch reports kMiss (and
  /// counts as prefetch-useful) because that is what the caller would have
  /// observed had speculation been off.
  ///
  /// `pruner` (optional, borrowed) applies online feature pruning as a
  /// view-side transform on the return path: the cache and store tiers stay
  /// keyed and populated at full dimension (entries remain valid across a
  /// mid-run freeze and across prune settings), and only the vector handed
  /// back is compacted. A null or not-yet-frozen pruner changes nothing.
  SparseVector Featurize(const Document& doc, uint32_t doc_id,
                         const Corpus& corpus,
                         CacheOutcome* outcome = nullptr,
                         const FeaturePruner* pruner = nullptr);

  /// Enqueues speculative extraction of `doc_ids` onto the background
  /// workers, bounded by kPrefetchQueueCap outstanding tasks;
  /// already-cached ids and ids past the cap are dropped. Returns the number
  /// of tasks actually enqueued. No-op (returns 0) when speculation is
  /// disabled.
  size_t EnqueuePrefetch(const Corpus& corpus,
                         const std::vector<uint32_t>& doc_ids);

  /// Invalidates all not-yet-started speculative tasks (they complete as
  /// no-ops). Non-blocking; running tasks finish their current document.
  void CancelPrefetch();

  /// Blocks until every enqueued speculative task has finished or bailed.
  /// Test/bench hook — the engine never needs it (cache inserts are safe
  /// to race with lookups).
  void DrainPrefetch();

  bool prefetch_enabled() const { return pool_ != nullptr; }

  PrefetchStats prefetch_stats() const;

  /// Publishes prefetch counters into `metrics` when speculation is
  /// enabled: monotonic "prefetch.issued" / "prefetch.useful" /
  /// "prefetch.wasted" / "prefetch.enqueued" / "prefetch.cancelled"
  /// counters (delta-tracked, so repeated exports never double-count) and a
  /// "prefetch.hit_rate" gauge. Also forwards to the attached store's
  /// ExportMetrics ("store.*" gauges) when one is attached. No-op when
  /// `metrics` is null.
  void ExportMetrics(MetricsRegistry* metrics) const
      ZOMBIE_EXCLUDES(export_mu_);

  /// Virtual extraction cost passthrough (see FeaturePipeline).
  int64_t ExtractionCostMicros(const Document& doc) const;

  const FeaturePipeline& pipeline() const { return *pipeline_; }
  FeatureCache* cache() const { return cache_; }
  PersistentFeatureStore* store() const { return store_; }
  const PrefetchOptions& prefetch_options() const { return prefetch_; }
  uint64_t pipeline_fingerprint() const { return fingerprint_; }

 private:
  /// The pre-pruning extraction path (all cache/store tiering); Featurize
  /// compacts its result when a frozen pruner is passed.
  SparseVector FeaturizeFull(const Document& doc, uint32_t doc_id,
                             const Corpus& corpus, CacheOutcome* outcome);

  const FeaturePipeline* pipeline_;
  FeatureCache* cache_;
  PrefetchOptions prefetch_;
  TraceRecorder* trace_;
  /// Optional second cache tier (borrowed); consulted on memory miss,
  /// written through on extraction.
  PersistentFeatureStore* store_;
  /// Computed once: FeaturePipeline::Fingerprint hashes every extractor.
  uint64_t fingerprint_ = 0;
  /// Null unless prefetch.threads > 0 and a cache is attached (speculation
  /// without a cache has nowhere to put results).
  std::unique_ptr<ThreadPool> pool_;
  /// Bumped by CancelPrefetch; tasks capture the value at enqueue and bail
  /// when it has moved.
  std::atomic<uint64_t> generation_{0};
  /// Queued + running speculative tasks (kPrefetchQueueCap bound).
  std::atomic<size_t> in_flight_{0};
  std::atomic<uint64_t> enqueued_{0};
  std::atomic<uint64_t> issued_{0};
  std::atomic<uint64_t> useful_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> skipped_{0};
  /// Serializes ExportMetrics' read-delta-increment sequence.
  mutable Mutex export_mu_;
  mutable PrefetchStats exported_ ZOMBIE_GUARDED_BY(export_mu_);
};

}  // namespace zombie

#endif  // ZOMBIE_FEATUREENG_EXTRACTION_SERVICE_H_
