#include "core/session.h"

#include <algorithm>

#include "bandit/epsilon_greedy.h"
#include "core/baselines.h"
#include "core/engine.h"
#include "data/corpus_source.h"
#include "index/incremental_grouper.h"
#include "obs/obs.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace zombie {

const char* SessionModeName(SessionMode mode) {
  switch (mode) {
    case SessionMode::kFullScan:
      return "fullscan";
    case SessionMode::kZombie:
      return "zombie";
  }
  return "?";
}

std::string SessionResult::ToString() const {
  return StrFormat(
      "%s: %zu revisions, total wait %s (index %s), best quality %.3f",
      SessionModeName(mode), revisions.size(),
      FormatDuration(total_virtual_micros).c_str(),
      FormatDuration(index_virtual_micros).c_str(), best_quality);
}

SessionResult RunSession(const Corpus& corpus, const RevisionScript& script,
                         SessionMode mode, Grouper* grouper,
                         const Learner& learner_prototype,
                         const RewardFunction& reward,
                         EngineOptions engine_options,
                         bool warm_start_bandit, FeatureCache* cache,
                         PrefetchOptions prefetch,
                         PersistentFeatureStore* store,
                         const SessionStreamConfig* stream) {
  SessionResult session;
  session.mode = mode;
  std::vector<ArmSummary> previous_arms;

  const bool streaming =
      mode == SessionMode::kZombie && stream != nullptr &&
      stream->source != nullptr;
  GroupingResult grouping;
  if (mode == SessionMode::kZombie) {
    if (streaming) {
      // Prime the incremental grouper over the offline base prefix once;
      // every revision replays the same arrival schedule from this state
      // (the engine clones the primed grouper per run).
      ZCHECK(stream->incremental_grouper != nullptr)
          << "streaming session needs an incremental grouper";
      grouping = stream->incremental_grouper->GroupBase(
          corpus, stream->source->base_size());
    } else {
      ZCHECK(grouper != nullptr) << "kZombie session needs a grouper";
      grouping = grouper->Group(corpus);
    }
    session.index_virtual_micros = grouping.build_virtual_micros;
    session.index_wall_micros = grouping.build_wall_micros;
  }

  for (size_t r = 0; r < script.size(); ++r) {
    FeaturePipeline pipeline = script.BuildPipeline(r, corpus);
    // Each revision gets an independent but deterministic seed.
    EngineOptions opts = engine_options;
    opts.seed = HashCombine(engine_options.seed, r);
    // One service per revision (the fingerprint is per-pipeline); the
    // shared cache carries memoized extractions across revisions and
    // sessions. The service drains its prefetch workers before the
    // pipeline goes out of scope.
    ExtractionService service(
        &pipeline, cache, prefetch,
        engine_options.obs != nullptr ? engine_options.obs->trace() : nullptr,
        store);

    RevisionOutcome outcome;
    outcome.revision_name = script.name(r);
    if (mode == SessionMode::kFullScan) {
      EngineOptions full = FullScanOptions(opts);
      ZombieEngine engine(&corpus, &service, full);
      RunResult run = RunRandomBaseline(engine, learner_prototype);
      outcome.items_processed = run.items_processed;
      outcome.virtual_micros = run.total_virtual_micros();
      outcome.final_quality = run.final_quality;
      outcome.stop_reason = run.stop_reason;
    } else {
      ZombieEngine engine(&corpus, &service, opts);
      EpsilonGreedyPolicy policy;
      const std::vector<ArmSummary>* warm =
          (warm_start_bandit && !previous_arms.empty()) ? &previous_arms
                                                        : nullptr;
      RunSpec spec(grouping, policy, learner_prototype, reward);
      spec.warm_start = warm;
      if (streaming) {
        spec.stream = stream->source;
        spec.incremental_grouper = stream->incremental_grouper;
      }
      RunResult run = engine.Run(spec);
      outcome.items_processed = run.items_processed;
      outcome.virtual_micros = run.total_virtual_micros();
      outcome.final_quality = run.final_quality;
      outcome.stop_reason = run.stop_reason;
      if (warm_start_bandit) previous_arms = run.arms;
    }
    session.best_quality = std::max(session.best_quality,
                                    outcome.final_quality);
    session.total_virtual_micros += outcome.virtual_micros;
    session.revisions.push_back(std::move(outcome));
  }
  session.total_virtual_micros += session.index_virtual_micros;
  return session;
}

}  // namespace zombie
