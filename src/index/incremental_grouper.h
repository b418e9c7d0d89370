#ifndef ZOMBIE_INDEX_INCREMENTAL_GROUPER_H_
#define ZOMBIE_INDEX_INCREMENTAL_GROUPER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "data/corpus.h"
#include "index/grouper.h"

namespace zombie {

/// Sentinel for NewGroupSeed::source_group when a group opens from scratch
/// (a never-seen metadata domain) rather than by splitting an existing one.
inline constexpr size_t kNoSourceGroup = std::numeric_limits<size_t>::max();

/// A group born mid-run. `members` seeds the new group's item list (copies
/// of documents that may also remain in `source_group` — splits copy
/// rather than move, and GroupedCorpus's global processed set dedups
/// consumption). Group ids are assigned in emission order: the engine
/// calls GroupedCorpus::AddGroup once per seed, in order, and the grouper
/// numbers its own bookkeeping identically.
struct NewGroupSeed {
  size_t source_group = kNoSourceGroup;
  std::vector<uint32_t> members;
};

/// What one arrival did to the index.
struct IngestAssignment {
  /// Existing groups the arrived document was appended to (possibly
  /// several for overlapping token groups; never empty).
  std::vector<size_t> groups;
  /// Groups opened by this arrival (splits or brand-new domains), in id
  /// order. Each becomes a new bandit arm.
  std::vector<NewGroupSeed> new_groups;
};

/// Online index construction: a base grouping built over the offline
/// prefix, then one AssignOrSplit call per arriving document. All
/// decisions are deterministic functions of (corpus, options, arrival
/// order) — no wall time, no out-of-band randomness — so streaming runs
/// stay byte-identical across thread counts and cache/store modes.
///
/// Instances are stateful (centroids, domain maps, token tables evolve
/// with the stream). The engine clones the primed grouper per run, so one
/// prototype can serve many concurrent trials; Clone() must copy the full
/// post-GroupBase state. KMeansGrouper and TokenGrouper implement this
/// alongside the offline Grouper interface; IncrementalMetadataGrouper is
/// streaming-only.
class IncrementalGrouper {
 public:
  virtual ~IncrementalGrouper() = default;

  /// Builds the base grouping over documents [0, base_size) and primes the
  /// incremental state. Must be called exactly once, before any
  /// AssignOrSplit. The result satisfies GroupingResult::Validate
  /// (base_size).
  virtual GroupingResult GroupBase(const Corpus& corpus,
                                   size_t base_size) = 0;

  /// Routes one arrived document (a corpus index >= the base size) into
  /// the index: appends it to existing groups, and/or opens new groups.
  virtual IngestAssignment AssignOrSplit(const Corpus& corpus,
                                         uint32_t doc_index) = 0;

  /// Total groups currently tracked (base + opened).
  virtual size_t num_groups() const = 0;

  virtual std::string name() const = 0;

  /// Deep copy including all incremental state.
  virtual std::unique_ptr<IncrementalGrouper> Clone() const = 0;
};

/// Metadata (domain) incremental grouping: first-seen domains open groups
/// up to max_groups, later domains fold in by hash. A never-seen domain
/// arriving mid-run below the cap opens a brand-new group — the "new
/// tenant shows up" case, an arm born with no history at all.
///
/// Unlike k-means and token grouping (KMeansGrouper, TokenGrouper, which
/// implement both interfaces), this is a different algorithm from the
/// offline MetadataGrouper, which hash-folds every domain and drops empty
/// groups: on the 12k-doc WebCat and Entity corpora the two partitions
/// differ at caps 16, 32 and 64, so they stay two classes.
struct IncrementalMetadataOptions {
  size_t max_groups = 64;
};

class IncrementalMetadataGrouper : public IncrementalGrouper {
 public:
  explicit IncrementalMetadataGrouper(IncrementalMetadataOptions options = {});

  GroupingResult GroupBase(const Corpus& corpus, size_t base_size) override;
  IngestAssignment AssignOrSplit(const Corpus& corpus,
                                 uint32_t doc_index) override;
  size_t num_groups() const override { return num_groups_; }
  std::string name() const override;
  std::unique_ptr<IncrementalGrouper> Clone() const override;

 private:
  size_t GroupForDomain(uint32_t domain, std::vector<NewGroupSeed>* opened);

  IncrementalMetadataOptions options_;
  /// domain id -> group id; -1 unseen. Grown on demand.
  std::vector<int32_t> domain_to_group_;
  size_t num_groups_ = 0;
  bool base_built_ = false;
};

}  // namespace zombie

#endif  // ZOMBIE_INDEX_INCREMENTAL_GROUPER_H_
