#ifndef ZOMBIE_ML_FEATURE_PRUNER_H_
#define ZOMBIE_ML_FEATURE_PRUNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/dataset.h"
#include "ml/learner.h"
#include "ml/sparse_vector.h"
#include "util/status.h"

namespace zombie {

/// Knobs for online feature pruning (see FeaturePruner below). Defaults are
/// the conservative preset; AggressivePruning() trades more accuracy for
/// more speed. All decisions derive from virtual-time-visible state only
/// (activation counts of training examples + the learner's weight snapshot
/// at a holdout boundary), so a pruned run is deterministic across thread
/// counts and cache/store modes.
struct FeaturePrunerOptions {
  /// Master switch. Off (the default) must be a perfect no-op: engine
  /// output is byte-identical to a build without the pruner.
  bool enabled = false;

  /// The mask freezes at the first holdout-eval boundary at or after this
  /// many processed items (prune decisions need a trained-enough learner).
  size_t freeze_after_items = 100;

  /// Features seen fewer times than this before the freeze are never
  /// pruned: there is no evidence their weight deserves to be near zero.
  size_t min_activations = 3;

  /// Fraction of the *eligible* features (activation count >=
  /// min_activations) that is pruned, lowest |weight|/activations first.
  double prune_fraction = 0.5;

  [[nodiscard]] Status Validate() const;
};

/// Conservative preset: gated in bench_prune at >= 1.3x inner-loop wall
/// with <= 0.5% holdout-accuracy delta.
FeaturePrunerOptions ConservativePruning();

/// Aggressive preset: prunes most of the eligible space; the quality hit is
/// reported (not gated) as the other end of the E-series frontier.
FeaturePrunerOptions AggressivePruning();

/// What the freeze decided; all values are deterministic run facts.
struct PruneStats {
  /// Item count at which the mask froze (a holdout-eval boundary).
  size_t frozen_at_items = 0;
  /// Size of the remap table == highest feature id observed + 1.
  size_t input_dimension = 0;
  /// Features that met the activation floor and were therefore rankable.
  size_t eligible_features = 0;
  /// Dense dimension after compaction (kept features).
  size_t kept_features = 0;
  /// input_dimension - kept_features.
  size_t pruned_features = 0;
};

/// Online feature pruner: watches training-example activations, and at a
/// holdout-eval boundary past freeze_after_items ranks feature ids by
/// accumulated |weight| / activation count, freezes a pruning mask, and
/// compacts everything downstream through a *monotone* old-id→dense-id
/// remap table (kept ids keep their relative order; dropped ids map to
/// kPrunedFeature). Monotonicity means compacted vectors stay sorted,
/// so every sparse kernel runs unchanged — just over shorter rows.
///
/// Determinism contract: ObserveExample is called once per training example
/// in pull order, and MaybeFreeze only at holdout boundaries, both on the
/// engine thread — the mask is a pure function of the example sequence and
/// the learner state, never of wall clock or thread interleaving.
/// Extraction, FeatureCache, and PersistentFeatureStore stay keyed at full
/// dimension; compaction is a view-side transform applied by
/// ExtractionService on its return path.
class FeaturePruner {
 public:
  explicit FeaturePruner(FeaturePrunerOptions options);

  const FeaturePrunerOptions& options() const { return options_; }

  /// True once the mask is frozen and compaction is active.
  bool frozen() const { return frozen_; }

  /// True when the learner turned out not to support weight export or
  /// compaction; the pruner then stays a permanent no-op.
  bool disabled() const { return disabled_; }

  /// Valid once frozen().
  const PruneStats& stats() const { return stats_; }
  const std::vector<uint32_t>& remap() const { return remap_; }

  /// Accumulates activation counts for one training example. No-op after
  /// the freeze (the mask never moves again mid-run).
  void ObserveExample(SparseVectorView x);

  /// Called at a holdout-eval boundary with the engine's item count.
  /// Freezes the mask and compacts the learner's per-feature state when the
  /// conditions above hold; returns true exactly when that happened (the
  /// caller must then compact its holdout/probe datasets too).
  bool MaybeFreeze(Learner* learner, size_t items);

  /// Compacts a vector through the frozen mask; no-op before the freeze.
  void CompactInPlace(SparseVector* x) const;

  /// Returns a compacted copy of a dataset (used for holdout/probe at the
  /// freeze). Must not be called before the freeze.
  Dataset CompactDataset(const Dataset& full) const;

 private:
  FeaturePrunerOptions options_;
  bool frozen_ = false;
  bool disabled_ = false;
  std::vector<uint32_t> activation_count_;
  std::vector<uint32_t> remap_;
  PruneStats stats_;
};

}  // namespace zombie

#endif  // ZOMBIE_ML_FEATURE_PRUNER_H_
