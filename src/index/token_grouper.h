#ifndef ZOMBIE_INDEX_TOKEN_GROUPER_H_
#define ZOMBIE_INDEX_TOKEN_GROUPER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/grouper.h"
#include "index/incremental_grouper.h"

namespace zombie {

/// Inverted-index grouping: one group per selected vocabulary token, each
/// containing the documents mentioning it, plus a catch-all group for
/// uncovered documents. Groups overlap (a document mentioning two selected
/// tokens is in both); the GroupedCorpus dedups at selection time.
///
/// Token selection is label-free: mid-document-frequency tokens (too rare
/// carries no mass, too frequent carries no signal), ranked rarest-first
/// within the band. For mention-style tasks (T2) the entity tokens land in
/// this band, so one arm nearly isolates the positives.
struct TokenGrouperOptions {
  /// Maximum number of token groups (excluding the catch-all).
  size_t max_groups = 63;
  /// Document-frequency band, as fractions of corpus size.
  double min_df_fraction = 0.002;
  double max_df_fraction = 0.20;
  /// Vocabulary terms the engineer seeds the index with (task hints, e.g.
  /// entity names). Resolved against the corpus vocabulary at Group time;
  /// unknown terms are ignored. Seeded terms always get a group and do not
  /// count against max_groups' DF-band selection order.
  std::vector<std::string> seed_terms;
};

/// One class for both index builds. Streaming: the DF-band token table is
/// selected over the base and frozen; arrivals join every group whose token
/// they mention (first-mention order), or the catch-all. The streaming
/// catch-all always exists — a streamed document with no indexed token must
/// have somewhere to land — so the grouper is append-only: groups never
/// split and never appear mid-run. Group(corpus) is GroupBase(corpus,
/// corpus.size()) on a fresh copy, minus an empty catch-all.
class TokenGrouper : public Grouper, public IncrementalGrouper {
 public:
  explicit TokenGrouper(TokenGrouperOptions options = {});

  GroupingResult Group(const Corpus& corpus) override;
  GroupingResult GroupBase(const Corpus& corpus, size_t base_size) override;
  IngestAssignment AssignOrSplit(const Corpus& corpus,
                                 uint32_t doc_index) override;
  size_t num_groups() const override { return num_token_groups_ + 1; }
  std::string name() const override { return "token"; }
  std::unique_ptr<IncrementalGrouper> Clone() const override;

  const TokenGrouperOptions& options() const { return options_; }

 private:
  TokenGrouperOptions options_;
  /// token id -> group id; -1 unindexed. Frozen at GroupBase.
  std::vector<int32_t> token_to_group_;
  size_t num_token_groups_ = 0;  // catch-all is group num_token_groups_
  bool base_built_ = false;
};

}  // namespace zombie

#endif  // ZOMBIE_INDEX_TOKEN_GROUPER_H_
