#ifndef ZOMBIE_CORE_SESSION_H_
#define ZOMBIE_CORE_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/reward.h"
#include "core/run_result.h"
#include "data/corpus.h"
#include "featureeng/extraction_service.h"
#include "featureeng/revision_script.h"
#include "index/grouper.h"
#include "ml/learner.h"

namespace zombie {

class ScheduledCorpusSource;
class IncrementalGrouper;

/// How each revision of the session evaluates its feature code.
enum class SessionMode {
  /// The status quo the paper argues against: every revision featurizes the
  /// whole corpus (random order), trains, evaluates.
  kFullScan,
  /// Zombie: the index is built once; every revision runs the bandit loop
  /// with early stopping.
  kZombie,
};

const char* SessionModeName(SessionMode mode);

/// Per-revision outcome within a session.
struct RevisionOutcome {
  std::string revision_name;
  size_t items_processed = 0;
  int64_t virtual_micros = 0;  // loop + holdout for this revision
  double final_quality = 0.0;
  StopReason stop_reason = StopReason::kExhausted;
};

/// Aggregate outcome of replaying a whole revision script — the engineer's
/// end-to-end wait time (the paper's "8 hours to 5 hours" quantity).
struct SessionResult {
  SessionMode mode = SessionMode::kFullScan;
  std::vector<RevisionOutcome> revisions;
  /// One-time index construction charge (kZombie only).
  int64_t index_virtual_micros = 0;
  int64_t index_wall_micros = 0;
  /// Total engineer wait: index build + every revision's virtual time.
  int64_t total_virtual_micros = 0;
  /// Quality of the best revision (what the engineer ships).
  double best_quality = 0.0;

  std::string ToString() const;
};

/// Replays `script` over `corpus` in the given mode. For kZombie, `grouper`
/// builds the index once up front and `policy_kind`/`reward` drive the
/// loop; for kFullScan those arguments are ignored. Deterministic given
/// `seed`.
///
/// With `warm_start_bandit` (kZombie only), each revision's bandit is
/// seeded with the previous revision's per-arm statistics — the groups'
/// usefulness barely changes between feature tweaks, so re-exploration is
/// mostly wasted work (the paper's cross-iteration amortization idea).
///
/// With `cache` (borrowed, may be shared), every revision's featurization
/// is memoized on the revision's pipeline fingerprint: re-running a script
/// whose prefix is unchanged — the paper's edit-run-evaluate loop — skips
/// re-extraction for those revisions entirely. Virtual-time and quality
/// numbers are unchanged by the cache; only wall-clock time shrinks.
///
/// Ownership: the session routes each revision through its own
/// ExtractionService built over (revision pipeline, cache, `prefetch`,
/// `store`); the cache and store outlive every service built on them.
/// `prefetch` enables speculative prefetch extraction per revision;
/// `store` attaches a persistent second cache tier that carries
/// extractions across *processes* and restarts (both wall-clock-only; see
/// ExtractionService). Each revision hits the store under its own pipeline
/// fingerprint, so a warm store skips re-extraction for exactly the
/// revisions whose feature code is unchanged.
/// Streaming ingestion for kZombie sessions. When `source` is set the
/// session ignores the positional `grouper`: it primes
/// `incremental_grouper` once over the offline base prefix (charging the
/// index build exactly like the offline path) and every revision replays
/// the same arrival schedule — the engine clones the primed grouper per
/// run, so revisions are independent and deterministic. Both pointers are
/// borrowed and must outlive the call.
struct SessionStreamConfig {
  const ScheduledCorpusSource* source = nullptr;
  /// Unprimed; the session calls GroupBase exactly once.
  IncrementalGrouper* incremental_grouper = nullptr;
};

SessionResult RunSession(const Corpus& corpus, const RevisionScript& script,
                         SessionMode mode, Grouper* grouper,
                         const Learner& learner_prototype,
                         const RewardFunction& reward,
                         EngineOptions engine_options,
                         bool warm_start_bandit = false,
                         FeatureCache* cache = nullptr,
                         PrefetchOptions prefetch = {},
                         PersistentFeatureStore* store = nullptr,
                         const SessionStreamConfig* stream = nullptr);

}  // namespace zombie

#endif  // ZOMBIE_CORE_SESSION_H_
