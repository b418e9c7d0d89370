#include "index/incremental_grouper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "data/generator.h"
#include "index/kmeans_grouper.h"
#include "index/token_grouper.h"

namespace zombie {
namespace {

Corpus TestCorpus(size_t docs = 800, uint64_t seed = 41) {
  SyntheticCorpusConfig cfg;
  cfg.num_documents = docs;
  cfg.common_vocabulary_size = 500;
  cfg.topic_vocabulary_size = 100;
  cfg.num_background_topics = 6;
  cfg.num_domains = 10;
  cfg.seed = seed;
  return SyntheticCorpusGenerator(cfg).Generate();
}

void ExpectSameGrouping(const GroupingResult& a, const GroupingResult& b) {
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.build_virtual_micros, b.build_virtual_micros);
}

// ---------------------------------------------------------------------------
// Offline Group == streaming GroupBase over the whole corpus
// ---------------------------------------------------------------------------

TEST(OfflineIsBaseBuildTest, KMeansGroupMatchesFullGroupBase) {
  Corpus corpus = TestCorpus();
  for (size_t k : {1u, 4u, 16u, 32u}) {
    SCOPED_TRACE(k);
    KMeansGrouper offline(k, 7);
    GroupingResult grouped = offline.Group(corpus);
    EXPECT_EQ(grouped.method, "kmeans" + std::to_string(k));
    EXPECT_EQ(grouped.num_groups(), k);
    EXPECT_TRUE(grouped.Validate(corpus.size()).ok());
    // Group leaves the instance unprimed: no per-document state is kept.
    EXPECT_EQ(offline.num_groups(), 0u);
    ExpectSameGrouping(grouped, offline.Group(corpus));

    KMeansGrouper streaming(k, 7);
    ExpectSameGrouping(grouped, streaming.GroupBase(corpus, corpus.size()));
    // A primed instance still groups from scratch.
    ExpectSameGrouping(grouped, streaming.Group(corpus));
  }
}

TEST(OfflineIsBaseBuildTest, KMeansAcceptsMoreGroupsThanTheDefaultCap) {
  Corpus corpus = TestCorpus();
  KMeansGrouper grouper(600, 7);
  GroupingResult grouped = grouper.Group(corpus);
  EXPECT_EQ(grouped.num_groups(), 600u);
  EXPECT_TRUE(grouped.Validate(corpus.size()).ok());
}

TEST(OfflineIsBaseBuildTest, TokenGroupDropsOnlyAnEmptyCatchAll) {
  Corpus corpus = TestCorpus();
  TokenGrouperOptions covering;  // band wide enough to cover every doc
  covering.min_df_fraction = 0.0;
  covering.max_df_fraction = 1.0;
  TokenGrouperOptions tight;  // no token qualifies: all in the catch-all
  tight.min_df_fraction = 0.999;
  tight.max_df_fraction = 0.9999;
  for (const TokenGrouperOptions& opts :
       {TokenGrouperOptions{}, covering, tight}) {
    TokenGrouper offline(opts);
    GroupingResult grouped = offline.Group(corpus);
    EXPECT_EQ(grouped.method, "token");
    EXPECT_TRUE(grouped.Validate(corpus.size()).ok());
    ExpectSameGrouping(grouped, offline.Group(corpus));

    TokenGrouper streaming(opts);
    GroupingResult base = streaming.GroupBase(corpus, corpus.size());
    ASSERT_FALSE(base.groups.empty());
    if (base.groups.back().empty()) {
      base.groups.pop_back();
      EXPECT_EQ(grouped.num_groups(), streaming.num_groups() - 1);
    } else {
      EXPECT_EQ(grouped.num_groups(), streaming.num_groups());
    }
    ExpectSameGrouping(grouped, base);
  }
  TokenGrouper covered(covering);
  EXPECT_EQ(covered.Group(corpus).num_groups(),
            covered.GroupBase(corpus, corpus.size()).num_groups() - 1)
      << "the covering band must leave the catch-all empty";
  EXPECT_EQ(TokenGrouper(tight).Group(corpus).num_groups(), 1u);
}

// ---------------------------------------------------------------------------
// k-means
// ---------------------------------------------------------------------------

TEST(StreamingKMeansTest, GroupBaseCoversPrefixAndValidates) {
  Corpus corpus = TestCorpus();
  KMeansGrouperOptions opts;
  opts.num_groups = 8;
  KMeansGrouper grouper(opts);
  GroupingResult grouping = grouper.GroupBase(corpus, 600);
  EXPECT_TRUE(grouping.Validate(600).ok());
  EXPECT_EQ(grouping.num_groups(), grouper.num_groups());
  std::set<uint32_t> covered;
  for (const auto& g : grouping.groups) {
    for (uint32_t d : g) {
      EXPECT_LT(d, 600u) << "base grouping must not touch the suffix";
      covered.insert(d);
    }
  }
  EXPECT_EQ(covered.size(), 600u);
}

TEST(StreamingKMeansTest, AssignIsDeterministicAndAppendsToOneGroup) {
  Corpus corpus = TestCorpus();
  KMeansGrouperOptions opts;
  opts.num_groups = 8;
  opts.split_threshold = 1u << 20;  // never split in this test
  KMeansGrouper a(opts);
  KMeansGrouper b(opts);
  a.GroupBase(corpus, 600);
  b.GroupBase(corpus, 600);
  for (uint32_t d = 600; d < 700; ++d) {
    IngestAssignment ia = a.AssignOrSplit(corpus, d);
    IngestAssignment ib = b.AssignOrSplit(corpus, d);
    ASSERT_EQ(ia.groups.size(), 1u) << "kmeans assigns to exactly one group";
    EXPECT_EQ(ia.groups, ib.groups);
    EXPECT_TRUE(ia.new_groups.empty());
    EXPECT_LT(ia.groups[0], a.num_groups());
  }
  EXPECT_EQ(a.num_splits(), 0u);
  EXPECT_EQ(a.num_groups(), 8u);
}

TEST(StreamingKMeansTest, OverflowTriggersDeterministicSplit) {
  Corpus corpus = TestCorpus();
  KMeansGrouperOptions opts;
  opts.num_groups = 2;       // big fat groups...
  opts.split_threshold = 8;  // ...that overflow almost immediately
  KMeansGrouper grouper(opts);
  KMeansGrouper twin(opts);
  grouper.GroupBase(corpus, 64);
  twin.GroupBase(corpus, 64);
  size_t groups_before = grouper.num_groups();
  bool saw_split = false;
  for (uint32_t d = 64; d < 200; ++d) {
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    IngestAssignment b = twin.AssignOrSplit(corpus, d);
    ASSERT_EQ(a.groups, b.groups);
    ASSERT_EQ(a.new_groups.size(), b.new_groups.size());
    for (size_t i = 0; i < a.new_groups.size(); ++i) {
      saw_split = true;
      const NewGroupSeed& seed = a.new_groups[i];
      // Splits record their source group and move a non-empty member set.
      EXPECT_NE(seed.source_group, kNoSourceGroup);
      EXPECT_FALSE(seed.members.empty());
      EXPECT_EQ(seed.members, b.new_groups[i].members);
      for (uint32_t m : seed.members) EXPECT_LT(m, 200u);
    }
  }
  EXPECT_TRUE(saw_split) << "split_threshold=8 over 136 arrivals must split";
  EXPECT_GT(grouper.num_groups(), groups_before);
  EXPECT_EQ(grouper.num_splits(), twin.num_splits());
  EXPECT_EQ(grouper.num_groups(),
            groups_before + grouper.num_splits());
}

TEST(StreamingKMeansTest, MaxGroupsCapStopsSplitsButNotAssignment) {
  Corpus corpus = TestCorpus();
  KMeansGrouperOptions opts;
  opts.num_groups = 2;
  opts.split_threshold = 4;
  opts.max_groups = 3;  // one split allowed, then capped
  KMeansGrouper grouper(opts);
  grouper.GroupBase(corpus, 64);
  for (uint32_t d = 64; d < 400; ++d) {
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    ASSERT_EQ(a.groups.size(), 1u);
    EXPECT_LE(grouper.num_groups(), 3u);
  }
  EXPECT_EQ(grouper.num_groups(), 3u);
  EXPECT_EQ(grouper.num_splits(), 1u);
}

TEST(StreamingKMeansTest, CloneIsIndependentDeepCopy) {
  Corpus corpus = TestCorpus();
  KMeansGrouperOptions opts;
  opts.num_groups = 4;
  opts.split_threshold = 8;
  KMeansGrouper grouper(opts);
  grouper.GroupBase(corpus, 100);
  std::unique_ptr<IncrementalGrouper> clone = grouper.Clone();
  // Drive the clone and the original with the same stream: identical
  // decisions (Clone copies all state)...
  for (uint32_t d = 100; d < 150; ++d) {
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    IngestAssignment b = clone->AssignOrSplit(corpus, d);
    EXPECT_EQ(a.groups, b.groups);
    ASSERT_EQ(a.new_groups.size(), b.new_groups.size());
  }
  // ...then drive only the clone further: the original must not move.
  size_t original_groups = grouper.num_groups();
  for (uint32_t d = 150; d < 300; ++d) clone->AssignOrSplit(corpus, d);
  EXPECT_EQ(grouper.num_groups(), original_groups);
}

// ---------------------------------------------------------------------------
// metadata
// ---------------------------------------------------------------------------

// A handmade corpus with a controlled domain sequence: documents take the
// domains listed in `domains`, in order. Lets the tests stage "a never-seen
// domain arrives mid-stream" deterministically.
Corpus DomainCorpus(const std::vector<uint32_t>& domains) {
  Corpus corpus;
  uint32_t t0 = corpus.mutable_vocabulary().GetOrAdd("alpha");
  uint32_t t1 = corpus.mutable_vocabulary().GetOrAdd("beta");
  corpus.mutable_vocabulary().Freeze();
  uint32_t max_domain = 0;
  for (uint32_t d : domains) max_domain = std::max(max_domain, d);
  for (uint32_t d = 0; d <= max_domain; ++d) {
    corpus.AddDomain("site" + std::to_string(d) + ".example.com");
  }
  for (size_t i = 0; i < domains.size(); ++i) {
    Document doc;
    doc.id = i;
    doc.tokens = {t0, t1};
    doc.label = static_cast<int32_t>(i % 2);
    doc.domain = domains[i];
    doc.extraction_cost_micros = 100;
    corpus.AddDocument(std::move(doc));
  }
  return corpus;
}

TEST(IncrementalMetadataTest, NewDomainOpensGroupBelowCap) {
  // Base (first 4 docs) sees only domains 0 and 1; the stream brings the
  // never-seen domains 2 and 3, plus repeats.
  Corpus corpus = DomainCorpus({0, 1, 0, 1, /*stream:*/ 2, 0, 3, 2});
  IncrementalMetadataGrouper grouper({/*max_groups=*/64});
  GroupingResult grouping = grouper.GroupBase(corpus, 4);
  EXPECT_TRUE(grouping.Validate(4).ok());
  ASSERT_EQ(grouper.num_groups(), 2u);

  std::set<uint32_t> seen = {0, 1};
  for (uint32_t d = 4; d < corpus.size(); ++d) {
    bool fresh = seen.insert(corpus.doc(d).domain).second;
    size_t before = grouper.num_groups();
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    ASSERT_EQ(a.groups.size(), 1u);
    if (fresh) {
      ASSERT_EQ(a.new_groups.size(), 1u);
      EXPECT_EQ(a.new_groups[0].source_group, kNoSourceGroup)
          << "a new domain is not a split";
      EXPECT_TRUE(a.new_groups[0].members.empty())
          << "engine appends the arrival itself via a.groups";
      EXPECT_EQ(a.groups[0], before) << "new group takes the next id";
      EXPECT_EQ(grouper.num_groups(), before + 1);
    } else {
      EXPECT_TRUE(a.new_groups.empty());
      EXPECT_EQ(grouper.num_groups(), before);
    }
  }
  EXPECT_EQ(grouper.num_groups(), 4u);
}

TEST(IncrementalMetadataTest, AtCapNewDomainsFoldInByHash) {
  Corpus corpus = DomainCorpus({0, 1, /*stream:*/ 2, 3, 4, 5, 2, 3});
  IncrementalMetadataGrouper grouper({/*max_groups=*/2});
  grouper.GroupBase(corpus, 2);
  ASSERT_EQ(grouper.num_groups(), 2u);
  std::vector<size_t> first_assignment(6, 0);
  for (uint32_t d = 2; d < corpus.size(); ++d) {
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    ASSERT_EQ(a.groups.size(), 1u);
    EXPECT_LT(a.groups[0], 2u) << "at the cap everything folds into "
                                  "existing groups";
    EXPECT_TRUE(a.new_groups.empty());
    uint32_t domain = corpus.doc(d).domain;
    if (d < 6) {
      first_assignment[domain] = a.groups[0];
    } else {
      // Hash-folding is sticky: a repeated domain lands where it first did.
      EXPECT_EQ(a.groups[0], first_assignment[domain]);
    }
  }
  EXPECT_EQ(grouper.num_groups(), 2u);
}

TEST(IncrementalMetadataTest, CloneCarriesDomainMap) {
  Corpus corpus = DomainCorpus({0, 1, /*stream:*/ 2, 0, 3, 2, 1, 3});
  IncrementalMetadataGrouper grouper({/*max_groups=*/64});
  grouper.GroupBase(corpus, 2);
  std::unique_ptr<IncrementalGrouper> clone = grouper.Clone();
  for (uint32_t d = 2; d < corpus.size(); ++d) {
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    IngestAssignment b = clone->AssignOrSplit(corpus, d);
    EXPECT_EQ(a.groups, b.groups);
    EXPECT_EQ(a.new_groups.size(), b.new_groups.size());
  }
  EXPECT_EQ(grouper.num_groups(), clone->num_groups());
}

// ---------------------------------------------------------------------------
// token
// ---------------------------------------------------------------------------

TEST(StreamingTokenTest, AppendOnlyWithCatchAllFallback) {
  Corpus corpus = TestCorpus();
  TokenGrouper grouper;
  GroupingResult grouping = grouper.GroupBase(corpus, 600);
  EXPECT_TRUE(grouping.Validate(600).ok());
  // The catch-all always exists: group count = token groups + 1.
  ASSERT_GE(grouper.num_groups(), 1u);
  const size_t catch_all = grouper.num_groups() - 1;
  bool used_catch_all = false;
  for (uint32_t d = 600; d < corpus.size(); ++d) {
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    EXPECT_TRUE(a.new_groups.empty()) << "token grouper is append-only";
    ASSERT_FALSE(a.groups.empty());
    for (size_t g : a.groups) EXPECT_LT(g, grouper.num_groups());
    if (a.groups.size() == 1 && a.groups[0] == catch_all) {
      used_catch_all = true;
    }
    // Group list has no duplicates (first-mention order).
    std::vector<size_t> sorted = a.groups;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  }
  EXPECT_EQ(grouper.num_groups(), grouping.num_groups());
  (void)used_catch_all;  // depends on vocabulary; not asserted
}

TEST(StreamingTokenTest, CatchAllCatchesDocWithNoIndexedToken) {
  Corpus corpus = TestCorpus();
  TokenGrouperOptions opts;
  // Impossibly tight DF band: no token qualifies, everything lands in the
  // catch-all — which must still exist (unlike TokenGrouper::Group, where
  // a fully-covering table omits it).
  opts.min_df_fraction = 0.999;
  opts.max_df_fraction = 0.9999;
  TokenGrouper grouper(opts);
  GroupingResult grouping = grouper.GroupBase(corpus, 600);
  EXPECT_TRUE(grouping.Validate(600).ok());
  EXPECT_EQ(grouper.num_groups(), 1u);
  for (uint32_t d = 600; d < 620; ++d) {
    IngestAssignment a = grouper.AssignOrSplit(corpus, d);
    ASSERT_EQ(a.groups.size(), 1u);
    EXPECT_EQ(a.groups[0], 0u);
  }
}

TEST(StreamingTokenTest, CloneSharesNoState) {
  Corpus corpus = TestCorpus();
  TokenGrouper grouper;
  grouper.GroupBase(corpus, 600);
  std::unique_ptr<IncrementalGrouper> clone = grouper.Clone();
  EXPECT_EQ(clone->num_groups(), grouper.num_groups());
  for (uint32_t d = 600; d < 650; ++d) {
    EXPECT_EQ(grouper.AssignOrSplit(corpus, d).groups,
              clone->AssignOrSplit(corpus, d).groups);
  }
}

}  // namespace
}  // namespace zombie
