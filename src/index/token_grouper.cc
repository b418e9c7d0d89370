#include "index/token_grouper.h"

#include <algorithm>
#include <vector>

#include "util/clock.h"
#include "util/logging.h"

namespace zombie {

TokenGrouper::TokenGrouper(TokenGrouperOptions options)
    : options_(options) {
  ZCHECK_GE(options.max_groups, 1u);
  ZCHECK_GE(options.min_df_fraction, 0.0);
  ZCHECK_LE(options.max_df_fraction, 1.0);
  ZCHECK_LT(options.min_df_fraction, options.max_df_fraction);
}

GroupingResult TokenGrouper::Group(const Corpus& corpus) {
  if (corpus.empty()) {
    GroupingResult result;
    result.method = name();
    return result;
  }
  GroupingResult result =
      TokenGrouper(options_).GroupBase(corpus, corpus.size());
  // Offline, nothing arrives later: drop an empty catch-all.
  if (result.groups.back().empty()) result.groups.pop_back();
  return result;
}

GroupingResult TokenGrouper::GroupBase(const Corpus& corpus,
                                       size_t base_size) {
  ZCHECK(!base_built_) << "GroupBase called twice";
  ZCHECK_GE(base_size, 1u);
  ZCHECK_LE(base_size, corpus.size());
  base_built_ = true;
  Stopwatch watch;
  GroupingResult result;
  result.method = name();

  // Pass 1: document frequencies over the base prefix. This reads raw token
  // streams, so it is charged to the virtual index-construction budget like
  // a signature scan: a cheap fraction of full extraction.
  std::vector<uint32_t> doc_freq(corpus.vocabulary().size(), 0);
  double virtual_cost = 0.0;
  std::vector<uint32_t> scratch;
  for (size_t i = 0; i < base_size; ++i) {
    const Document& doc = corpus.doc(i);
    scratch.assign(doc.tokens.begin(), doc.tokens.end());
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    for (uint32_t tok : scratch) {
      if (tok < doc_freq.size()) ++doc_freq[tok];
    }
    virtual_cost += 0.05 * static_cast<double>(doc.extraction_cost_micros);
  }

  // Seeded terms first (engineer-provided task hints), then tokens in the
  // DF band by descending coverage.
  std::vector<uint32_t> candidates;
  std::vector<uint8_t> taken(doc_freq.size(), 0);
  for (const std::string& term : options_.seed_terms) {
    uint32_t id = corpus.vocabulary().Lookup(term);
    if (id != Vocabulary::kUnknownTerm && doc_freq[id] > 0 && !taken[id]) {
      candidates.push_back(id);
      taken[id] = 1;
    }
  }
  const uint32_t min_df = static_cast<uint32_t>(
      options_.min_df_fraction * static_cast<double>(base_size));
  const uint32_t max_df = static_cast<uint32_t>(
      options_.max_df_fraction * static_cast<double>(base_size));
  std::vector<uint32_t> band;
  for (uint32_t tok = 0; tok < doc_freq.size(); ++tok) {
    if (!taken[tok] && doc_freq[tok] > std::max<uint32_t>(min_df, 1) &&
        doc_freq[tok] <= std::max<uint32_t>(max_df, 2)) {
      band.push_back(tok);
    }
  }
  std::sort(band.begin(), band.end(), [&doc_freq](uint32_t a, uint32_t b) {
    if (doc_freq[a] != doc_freq[b]) return doc_freq[a] > doc_freq[b];
    return a < b;
  });
  for (uint32_t tok : band) {
    if (candidates.size() >= options_.max_groups) break;
    candidates.push_back(tok);
  }
  token_to_group_.assign(doc_freq.size(), -1);
  for (size_t g = 0; g < candidates.size(); ++g) {
    token_to_group_[candidates[g]] = static_cast<int32_t>(g);
  }
  num_token_groups_ = candidates.size();

  // Pass 2: populate groups (each doc at most once per group) + the
  // catch-all, kept even when empty: later arrivals may need it.
  result.groups.assign(num_token_groups_ + 1, {});
  std::vector<uint8_t> in_group(num_token_groups_, 0);
  for (size_t i = 0; i < base_size; ++i) {
    const Document& doc = corpus.doc(i);
    bool covered = false;
    std::fill(in_group.begin(), in_group.end(), 0);
    for (uint32_t tok : doc.tokens) {
      int32_t g = tok < token_to_group_.size() ? token_to_group_[tok] : -1;
      if (g >= 0 && !in_group[static_cast<size_t>(g)]) {
        in_group[static_cast<size_t>(g)] = 1;
        result.groups[static_cast<size_t>(g)].push_back(
            static_cast<uint32_t>(i));
        covered = true;
      }
    }
    if (!covered) {
      result.groups.back().push_back(static_cast<uint32_t>(i));
    }
  }
  result.build_virtual_micros = static_cast<int64_t>(virtual_cost);
  result.build_wall_micros = watch.ElapsedMicros();
  return result;
}

IngestAssignment TokenGrouper::AssignOrSplit(const Corpus& corpus,
                                             uint32_t doc_index) {
  ZCHECK(base_built_) << "AssignOrSplit before GroupBase";
  ZCHECK_LT(doc_index, corpus.size());
  IngestAssignment out;
  const Document& doc = corpus.doc(doc_index);
  // First-mention order, each group at most once (matching the base pass).
  std::vector<uint8_t> in_group(num_token_groups_, 0);
  for (uint32_t tok : doc.tokens) {
    int32_t g = tok < token_to_group_.size() ? token_to_group_[tok] : -1;
    if (g >= 0 && !in_group[static_cast<size_t>(g)]) {
      in_group[static_cast<size_t>(g)] = 1;
      out.groups.push_back(static_cast<size_t>(g));
    }
  }
  if (out.groups.empty()) out.groups.push_back(num_token_groups_);
  return out;
}

std::unique_ptr<IncrementalGrouper> TokenGrouper::Clone() const {
  return std::make_unique<TokenGrouper>(*this);
}

}  // namespace zombie
