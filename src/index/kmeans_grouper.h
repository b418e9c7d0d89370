#ifndef ZOMBIE_INDEX_KMEANS_GROUPER_H_
#define ZOMBIE_INDEX_KMEANS_GROUPER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/grouped_corpus.h"
#include "index/grouper.h"
#include "index/incremental_grouper.h"
#include "index/signature.h"

namespace zombie {

/// Content-based index groups: cheap signatures clustered with k-means.
/// The paper's primary grouping — topical clusters concentrate useful items
/// without looking at labels or running the (expensive) feature code.
///
/// Streaming: k-means over the base signatures, then
/// assign-to-nearest-centroid (ties toward the lower group id) with a
/// running-mean centroid update per arrival. A group whose member count
/// reaches `split_threshold` is split by a deterministic 2-means over its
/// member signatures: the smaller half becomes a new group (a new arm),
/// both halves get their recomputed centroids. Signatures of arrivals use
/// the base-frozen IDF table, so geometry never depends on unseen data.
struct KMeansGrouperOptions {
  size_t num_groups = 32;
  uint64_t seed = 7;
  SignatureConfig signature;
  /// Member count that triggers a split (2 shards keeps chains short).
  size_t split_threshold = 2 * GroupedCorpus::kShardCapacity;
  /// Hard cap on total groups; at the cap assignment continues, splits
  /// stop. Must be >= num_groups.
  size_t max_groups = 512;
  size_t split_kmeans_iterations = 8;
};

/// One class for both index builds: Group(corpus) returns exactly what
/// GroupBase(corpus, corpus.size()) returns — one base build — but primes
/// no streaming state, so the grouper keeps no per-document state and can
/// group any number of corpora.
class KMeansGrouper : public Grouper, public IncrementalGrouper {
 public:
  explicit KMeansGrouper(KMeansGrouperOptions options = {});
  /// The split cap follows `num_groups` when that exceeds the default.
  KMeansGrouper(size_t num_groups, uint64_t seed,
                SignatureConfig signature_config = {});

  GroupingResult Group(const Corpus& corpus) override;
  GroupingResult GroupBase(const Corpus& corpus, size_t base_size) override;
  IngestAssignment AssignOrSplit(const Corpus& corpus,
                                 uint32_t doc_index) override;
  size_t num_groups() const override { return centroids_.size(); }
  std::string name() const override;
  std::unique_ptr<IncrementalGrouper> Clone() const override;

  /// Splits performed so far (testing accessor).
  size_t num_splits() const { return num_splits_; }

 private:
  /// The base build over documents [0, base_size); `prime` also keeps the
  /// streaming state (IDF table, centroids, member signatures).
  GroupingResult Build(const Corpus& corpus, size_t base_size, bool prime);

  KMeansGrouperOptions options_;
  std::vector<double> idf_;  // frozen at GroupBase
  std::vector<std::vector<double>> centroids_;
  /// Current members per group (doc ids + their signatures, parallel
  /// vectors) — the split working set. A split moves the smaller half's
  /// entries to the new group's vectors.
  std::vector<std::vector<uint32_t>> member_docs_;
  std::vector<std::vector<std::vector<double>>> member_sigs_;
  /// Member count at which group g next attempts a split (re-armed after
  /// every attempt so a degenerate group cannot retry per arrival).
  std::vector<size_t> next_split_at_;
  size_t num_splits_ = 0;
  bool base_built_ = false;
};

}  // namespace zombie

#endif  // ZOMBIE_INDEX_KMEANS_GROUPER_H_
