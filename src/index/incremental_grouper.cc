#include "index/incremental_grouper.h"

#include <utility>

#include "util/clock.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace zombie {

// --------------------------------------------------------------------------
// IncrementalMetadataGrouper

IncrementalMetadataGrouper::IncrementalMetadataGrouper(
    IncrementalMetadataOptions options)
    : options_(options) {
  ZCHECK_GE(options.max_groups, 1u);
}

size_t IncrementalMetadataGrouper::GroupForDomain(
    uint32_t domain, std::vector<NewGroupSeed>* opened) {
  if (domain >= domain_to_group_.size()) {
    domain_to_group_.resize(domain + 1, -1);
  }
  int32_t g = domain_to_group_[domain];
  if (g >= 0) return static_cast<size_t>(g);
  size_t assigned;
  if (num_groups_ < options_.max_groups) {
    assigned = num_groups_++;
    if (opened != nullptr) {
      NewGroupSeed seed;  // brand-new domain: an arm with no history
      opened->push_back(std::move(seed));
    }
  } else {
    assigned = static_cast<size_t>(
        HashCombine(domain, 0x4D455441ULL) % num_groups_);
  }
  domain_to_group_[domain] = static_cast<int32_t>(assigned);
  return assigned;
}

GroupingResult IncrementalMetadataGrouper::GroupBase(const Corpus& corpus,
                                                     size_t base_size) {
  ZCHECK(!base_built_) << "GroupBase called twice";
  ZCHECK_GE(base_size, 1u);
  ZCHECK_LE(base_size, corpus.size());
  base_built_ = true;
  Stopwatch watch;
  GroupingResult result;
  result.method = name();
  // First-seen domain order opens groups (no empty-group dropping, unlike
  // the offline MetadataGrouper: the domain -> group map must stay stable
  // under later arrivals).
  std::vector<size_t> assignment(base_size, 0);
  for (size_t i = 0; i < base_size; ++i) {
    assignment[i] = GroupForDomain(corpus.doc(i).domain, nullptr);
  }
  result.groups.resize(num_groups_);
  for (size_t i = 0; i < base_size; ++i) {
    result.groups[assignment[i]].push_back(static_cast<uint32_t>(i));
  }
  // Metadata reads are free relative to extraction.
  result.build_virtual_micros = 0;
  result.build_wall_micros = watch.ElapsedMicros();
  return result;
}

IngestAssignment IncrementalMetadataGrouper::AssignOrSplit(
    const Corpus& corpus, uint32_t doc_index) {
  ZCHECK(base_built_) << "AssignOrSplit before GroupBase";
  ZCHECK_LT(doc_index, corpus.size());
  IngestAssignment out;
  size_t g = GroupForDomain(corpus.doc(doc_index).domain, &out.new_groups);
  out.groups.push_back(g);
  return out;
}

std::string IncrementalMetadataGrouper::name() const {
  return StrFormat("imeta%zu", options_.max_groups);
}

std::unique_ptr<IncrementalGrouper> IncrementalMetadataGrouper::Clone()
    const {
  return std::make_unique<IncrementalMetadataGrouper>(*this);
}

}  // namespace zombie
