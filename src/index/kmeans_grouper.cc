#include "index/kmeans_grouper.h"

#include <algorithm>
#include <utility>

#include "index/kmeans.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace zombie {
namespace {

KMeansGrouperOptions OptionsFor(size_t num_groups, uint64_t seed,
                                SignatureConfig signature_config) {
  KMeansGrouperOptions options;
  options.num_groups = num_groups;
  options.seed = seed;
  options.signature = signature_config;
  options.max_groups = std::max(options.max_groups, num_groups);
  return options;
}

}  // namespace

KMeansGrouper::KMeansGrouper(KMeansGrouperOptions options)
    : options_(options) {
  ZCHECK_GE(options.num_groups, 1u);
  ZCHECK_GE(options.split_threshold, 4u);
  ZCHECK_GE(options.max_groups, options.num_groups);
  ZCHECK_GE(options.split_kmeans_iterations, 1u);
}

KMeansGrouper::KMeansGrouper(size_t num_groups, uint64_t seed,
                             SignatureConfig signature_config)
    : KMeansGrouper(OptionsFor(num_groups, seed, signature_config)) {}

GroupingResult KMeansGrouper::Group(const Corpus& corpus) {
  if (corpus.empty()) {
    GroupingResult result;
    result.method = name();
    return result;
  }
  return Build(corpus, corpus.size(), /*prime=*/false);
}

GroupingResult KMeansGrouper::GroupBase(const Corpus& corpus,
                                        size_t base_size) {
  ZCHECK(!base_built_) << "GroupBase called twice";
  ZCHECK_GE(base_size, 1u);
  ZCHECK_LE(base_size, corpus.size());
  base_built_ = true;
  return Build(corpus, base_size, /*prime=*/true);
}

GroupingResult KMeansGrouper::Build(const Corpus& corpus, size_t base_size,
                                    bool prime) {
  Stopwatch watch;
  GroupingResult result;
  result.method = name();

  PrefixSignatures sigs =
      ComputeSignaturesForPrefix(corpus, base_size, options_.signature);
  // Only a primed grouper keeps the IDF table and the member signatures
  // (arrivals need them). The offline build frees the table before
  // k-means: the returned groups then reuse its heap space below the
  // signature rows, so the rows (~12 MB at 12k docs) go back to the OS
  // when freed. Priming in the offline build raised the oneshot_kmeans
  // benchmark's peak RSS by 2.4 MiB.
  if (prime) {
    idf_ = std::move(sigs.idf);
  } else {
    sigs.idf = std::vector<double>();
  }

  KMeansConfig kcfg;
  kcfg.k = std::min(options_.num_groups, base_size);
  kcfg.seed = options_.seed;
  KMeansResult km = RunKMeans(sigs.matrix.rows, kcfg);

  result.groups.resize(kcfg.k);
  for (size_t i = 0; i < km.assignments.size(); ++i) {
    ZCHECK_LT(km.assignments[i], kcfg.k);
    result.groups[km.assignments[i]].push_back(static_cast<uint32_t>(i));
  }
  if (prime) {
    centroids_ = std::move(km.centroids);
    member_docs_ = result.groups;
    member_sigs_.resize(kcfg.k);
    for (size_t g = 0; g < kcfg.k; ++g) {
      for (uint32_t i : member_docs_[g]) {
        member_sigs_[g].push_back(std::move(sigs.matrix.rows[i]));
      }
    }
    next_split_at_.assign(kcfg.k, options_.split_threshold);
  }
  result.build_virtual_micros = sigs.matrix.virtual_cost_micros;
  result.build_wall_micros = watch.ElapsedMicros();
  return result;
}

IngestAssignment KMeansGrouper::AssignOrSplit(const Corpus& corpus,
                                              uint32_t doc_index) {
  ZCHECK(base_built_) << "AssignOrSplit before GroupBase";
  ZCHECK_LT(doc_index, corpus.size());
  std::vector<double> sig = ComputeSignature(
      corpus.doc(doc_index), options_.signature,
      idf_.empty() ? nullptr : &idf_);

  // Nearest centroid, ties toward the lower group id (strict <).
  size_t best = 0;
  double best_dist = SquaredL2(sig, centroids_[0]);
  for (size_t g = 1; g < centroids_.size(); ++g) {
    double d = SquaredL2(sig, centroids_[g]);
    if (d < best_dist) {
      best_dist = d;
      best = g;
    }
  }

  // Running-mean centroid update: the centroid is the mean of everything
  // ever assigned to the group (base members + arrivals), updated in
  // arrival order — deterministic because arrival order is.
  std::vector<double>& centroid = centroids_[best];
  double n = static_cast<double>(member_docs_[best].size()) + 1.0;
  for (size_t d = 0; d < centroid.size(); ++d) {
    centroid[d] += (sig[d] - centroid[d]) / n;
  }
  member_docs_[best].push_back(doc_index);
  member_sigs_[best].push_back(std::move(sig));

  IngestAssignment out;
  out.groups.push_back(best);

  if (member_docs_[best].size() < next_split_at_[best] ||
      centroids_.size() >= options_.max_groups) {
    return out;
  }
  // Re-arm regardless of the attempt's outcome so a degenerate group
  // (identical signatures: 2-means leaves one side empty) does not retry
  // on every arrival.
  next_split_at_[best] =
      member_docs_[best].size() + options_.split_threshold;

  KMeansConfig split_cfg;
  split_cfg.k = 2;
  split_cfg.max_iterations = options_.split_kmeans_iterations;
  split_cfg.seed = HashCombine(options_.seed, 0x5154ULL + num_splits_);
  KMeansResult split = RunKMeans(member_sigs_[best], split_cfg);

  size_t count1 = 0;
  for (uint32_t a : split.assignments) count1 += a == 1;
  size_t count0 = split.assignments.size() - count1;
  if (count0 == 0 || count1 == 0) return out;  // degenerate: keep as-is

  // The smaller half moves to the new group (ties: cluster 1 moves, so
  // the lower-id cluster keeps the old arm's history).
  uint32_t moving = count1 <= count0 ? 1u : 0u;
  std::vector<uint32_t> stay_docs, move_docs;
  std::vector<std::vector<double>> stay_sigs, move_sigs;
  for (size_t i = 0; i < split.assignments.size(); ++i) {
    if (split.assignments[i] == moving) {
      move_docs.push_back(member_docs_[best][i]);
      move_sigs.push_back(std::move(member_sigs_[best][i]));
    } else {
      stay_docs.push_back(member_docs_[best][i]);
      stay_sigs.push_back(std::move(member_sigs_[best][i]));
    }
  }
  member_docs_[best] = std::move(stay_docs);
  member_sigs_[best] = std::move(stay_sigs);
  centroids_[best] = split.centroids[1 - moving];

  NewGroupSeed seed;
  seed.source_group = best;
  seed.members = move_docs;
  out.new_groups.push_back(std::move(seed));

  centroids_.push_back(split.centroids[moving]);
  member_docs_.push_back(std::move(move_docs));
  member_sigs_.push_back(std::move(move_sigs));
  next_split_at_.push_back(member_docs_.back().size() +
                           options_.split_threshold);
  ++num_splits_;
  return out;
}

std::string KMeansGrouper::name() const {
  return StrFormat("kmeans%zu", options_.num_groups);
}

std::unique_ptr<IncrementalGrouper> KMeansGrouper::Clone() const {
  return std::make_unique<KMeansGrouper>(*this);
}

}  // namespace zombie
