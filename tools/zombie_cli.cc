// zombie_cli — command-line front end for the library.
//
//   zombie_cli generate --task=webcat --docs=20000 --seed=42 --out=crawl.zmbc
//   zombie_cli inspect  --corpus=crawl.zmbc
//   zombie_cli run      --corpus=crawl.zmbc [--task=webcat --docs=...]
//                       --grouper=kmeans --groups=32 --policy=egreedy
//                       --reward=label --learner=nb [--baseline] [--csv=out.csv]
//                       [--trials=N] [--threads=N] [--eval-threads=N]
//                       [--cache] [--prefetch-threads=N] [--prefetch-arms=N]
//                       [--prune=off|conservative|aggressive]
//                       [--stream=F] [--ingest-rate=R]
//                       [--stream-order=corpus|shuffled|domain]
//                       [--stream-seed=N]
//                       [--store-path=feat.zfs] [--store-gc]
//                       [--trace-out=trace.json] [--metrics-out=metrics.json]
//                       [--decisions-out=decisions.jsonl]
//                       [--fingerprint-out=fp.txt]
//   zombie_cli session  --task=webcat --docs=12000 [--warm] [--cache]
//                       [--eval-threads=N]
//                       [--prefetch-threads=N] [--prefetch-arms=N]
//                       [--prune=off|conservative|aggressive]
//                       [--store-path=feat.zfs]
//                       [--trace-out=...] [--metrics-out=...]
//                       [--decisions-out=...]
//   zombie_cli simd-level [--print=active|detected]
//
// Flags are --key=value; unknown flags fail loudly. When --corpus is given
// it is loaded from disk, otherwise --task/--docs/--seed generate one.
// The three --*-out flags enable the matching observability sink for the
// run and write it on exit: --trace-out produces Chrome/Perfetto-loadable
// trace JSON, --metrics-out a metrics snapshot, --decisions-out the
// per-pull bandit decision log as JSONL.
//
// --store-path attaches the persistent mmap-backed feature store at that
// path (created on first use) as a second cache tier: extractions persist
// across processes and restarts, results stay byte-identical (the store is
// wall-clock-only, like --cache). One process writes, concurrent ones read.
// --store-gc (run only) drops store records from other pipeline
// fingerprints at open (versioned invalidation).
//
// --prune selects an online feature-pruning preset (ml/feature_pruner.h):
// past a warmup item count the engine freezes a deterministic pruning mask
// at a holdout-eval boundary and compacts every subsequent sparse vector.
// "off" (the default) leaves all output byte-identical to pre-pruning
// builds; "conservative"/"aggressive" trade accuracy for inner-loop speed.
//
// --stream=F (run only) holds back the last F (0 < F < 1) of the corpus as
// a virtual-time arrival stream: the index is built over the remaining
// base prefix and arrivals join it at holdout-eval boundaries, splitting
// or opening bandit arms mid-run (data/corpus_source.h,
// index/incremental_grouper.h). --ingest-rate sets the arrival rate in
// documents per virtual second (default 100), --stream-order the arrival
// permutation, --stream-seed the schedule's jitter seed. Streaming runs
// are deterministic given these flags: fingerprints and decision logs are
// byte-identical across --threads, --eval-threads, --cache/--store-path,
// and forced SIMD levels. Requires --grouper=kmeans|metadata|token.
//
// --fingerprint-out (run only) writes each trial's canonical RunResult
// fingerprint (see RunResult::Fingerprint); the simd-dispatch CI job
// byte-compares these files across forced ZOMBIE_SIMD_LEVEL runs.
// `simd-level` reports how SIMD dispatch resolved on this machine/binary.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bandit/policy.h"
#include "core/analysis.h"
#include "core/baselines.h"
#include "core/engine.h"
#include "core/experiment_driver.h"
#include "core/reward.h"
#include "core/session.h"
#include "featureeng/extraction_service.h"
#include "featureeng/feature_cache.h"
#include "featureeng/persistent_feature_store.h"
#include "core/task_factory.h"
#include "data/corpus_source.h"
#include "data/serialization.h"
#include "featureeng/revision_script.h"
#include "index/incremental_grouper.h"
#include "index/kmeans_grouper.h"
#include "index/metadata_grouper.h"
#include "index/oracle_grouper.h"
#include "index/random_grouper.h"
#include "index/token_grouper.h"
#include "ml/adagrad_lr.h"
#include "ml/feature_pruner.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/simd/simd_level.h"
#include "ml/pegasos_svm.h"
#include "ml/perceptron.h"
#include "obs/obs.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace zombie {
namespace cli {
namespace {

// ---------------------------------------------------------------------------
// Flag parsing
// ---------------------------------------------------------------------------

class Flags {
 public:
  [[nodiscard]] Status Parse(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        return Status::InvalidArgument("expected --key=value, got " + arg);
      }
      size_t eq = arg.find('=');
      std::string key = arg.substr(2, eq == std::string::npos
                                          ? std::string::npos
                                          : eq - 2);
      std::string value = eq == std::string::npos ? "true" : arg.substr(eq + 1);
      values_[key] = value;
    }
    return Status::OK();
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = values_.find(key);
    consumed_.insert(key);
    return it == values_.end() ? fallback : it->second;
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    consumed_.insert(key);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    consumed_.insert(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  bool GetBool(const std::string& key) const {
    auto it = values_.find(key);
    consumed_.insert(key);
    return it != values_.end() && it->second != "false" && it->second != "0";
  }

  /// Errors out on flags nobody consumed (typo protection).
  [[nodiscard]] Status CheckAllConsumed() const {
    for (const auto& [key, value] : values_) {
      if (consumed_.find(key) == consumed_.end()) {
        return Status::InvalidArgument("unknown flag --" + key);
      }
    }
    return Status::OK();
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> consumed_;
};

// ---------------------------------------------------------------------------
// Component construction from flag values
// ---------------------------------------------------------------------------

StatusOr<TaskKind> ParseTaskKind(const std::string& name) {
  if (name == "webcat") return TaskKind::kWebCat;
  if (name == "entity") return TaskKind::kEntity;
  if (name == "balanced") return TaskKind::kBalanced;
  return Status::InvalidArgument("unknown task: " + name);
}

StatusOr<Corpus> ObtainCorpus(const Flags& flags) {
  std::string path = flags.GetString("corpus", "");
  if (!path.empty()) return LoadCorpus(path);
  ZOMBIE_ASSIGN_OR_RETURN(TaskKind kind,
                          ParseTaskKind(flags.GetString("task", "webcat")));
  Task task = MakeTask(kind,
                       static_cast<size_t>(flags.GetInt("docs", 12000)),
                       static_cast<uint64_t>(flags.GetInt("seed", 42)));
  return std::move(task.corpus);
}

/// --groups, checked before any grouper is built (every grouper requires
/// at least one group).
StatusOr<size_t> GroupCountFromFlags(const Flags& flags) {
  int64_t groups = flags.GetInt("groups", 32);
  if (groups < 1) return Status::InvalidArgument("--groups must be >= 1");
  return static_cast<size_t>(groups);
}

std::unique_ptr<Grouper> MakeGrouperFromFlags(const Flags& flags,
                                              size_t groups) {
  std::string name = flags.GetString("grouper", "kmeans");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("grouper_seed", 7));
  if (name == "kmeans") return std::make_unique<KMeansGrouper>(groups, seed);
  if (name == "random") return std::make_unique<RandomGrouper>(groups, seed);
  if (name == "metadata") return std::make_unique<MetadataGrouper>(groups);
  if (name == "token") {
    TokenGrouperOptions opts;
    for (const std::string& term :
         Split(flags.GetString("seed_terms", ""), ',')) {
      if (!term.empty()) opts.seed_terms.push_back(term);
    }
    return std::make_unique<TokenGrouper>(opts);
  }
  if (name == "oracle") {
    return std::make_unique<OracleGrouper>(OracleMode::kLabel);
  }
  return nullptr;
}

/// The --stream view of the --grouper choice. kmeans and token groupers
/// stream as themselves; metadata streams through its first-seen-order
/// twin, which partitions differently (index/incremental_grouper.h) and is
/// returned through `owned`. Null for groupers with no streaming form.
IncrementalGrouper* StreamingGrouper(
    const Flags& flags, size_t groups, Grouper* grouper,
    std::unique_ptr<IncrementalGrouper>* owned) {
  if (flags.GetString("grouper", "kmeans") == "metadata") {
    IncrementalMetadataOptions opts;
    opts.max_groups = groups;
    *owned = std::make_unique<IncrementalMetadataGrouper>(opts);
    return owned->get();
  }
  return dynamic_cast<IncrementalGrouper*>(grouper);
}

/// --stream-order parse; unknown values are reported and fall back to the
/// corpus order (the prune/prefetch flag idiom).
ArrivalOrder ParseArrivalOrder(const std::string& name) {
  if (name == "shuffled") return ArrivalOrder::kShuffled;
  if (name == "domain") return ArrivalOrder::kDomainGrouped;
  if (name != "corpus") {
    std::fprintf(stderr,
                 "unknown --stream-order '%s' (want corpus|shuffled|domain); "
                 "using corpus\n",
                 name.c_str());
  }
  return ArrivalOrder::kCorpus;
}

StatusOr<PolicyKind> ParsePolicyKindFromFlags(const Flags& flags) {
  std::string name = flags.GetString("policy", "egreedy");
  for (PolicyKind kind :
       {PolicyKind::kRoundRobin, PolicyKind::kUniformRandom,
        PolicyKind::kEpsilonGreedy, PolicyKind::kUcb1,
        PolicyKind::kSlidingUcb, PolicyKind::kThompson, PolicyKind::kExp3,
        PolicyKind::kSoftmax}) {
    if (name == PolicyKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown policy: " + name);
}

std::unique_ptr<RewardFunction> MakeRewardFromFlags(const Flags& flags) {
  std::string name = flags.GetString("reward", "label");
  for (RewardKind kind :
       {RewardKind::kLabel, RewardKind::kUncertainty,
        RewardKind::kMisclassification, RewardKind::kImprovement,
        RewardKind::kBlend, RewardKind::kBalance, RewardKind::kZero}) {
    if (name == RewardKindName(kind)) return MakeReward(kind);
  }
  return nullptr;
}

std::unique_ptr<Learner> MakeLearnerFromFlags(const Flags& flags) {
  std::string name = flags.GetString("learner", "nb");
  if (name == "nb") return std::make_unique<NaiveBayesLearner>();
  if (name == "logreg") return std::make_unique<LogisticRegressionLearner>();
  if (name == "adagrad") return std::make_unique<AdaGradLogisticLearner>();
  if (name == "perceptron") {
    return std::make_unique<AveragedPerceptronLearner>();
  }
  if (name == "svm") return std::make_unique<PegasosSvmLearner>();
  return nullptr;
}

/// Engine knobs from flags, validated once here so a bad value ends in a
/// one-line error instead of the engine's construction-time check.
StatusOr<EngineOptions> MakeEngineOptionsFromFlags(const Flags& flags) {
  EngineOptions opts;
  opts.seed = static_cast<uint64_t>(flags.GetInt("run_seed", 1));
  opts.holdout_size = static_cast<size_t>(flags.GetInt("holdout", 400));
  opts.eval_every = static_cast<size_t>(flags.GetInt("eval_every", 25));
  opts.tune_threshold = flags.GetBool("tune_threshold");
  int64_t budget = flags.GetInt("max_items", -1);
  if (budget > 0) opts.stop.max_items = static_cast<size_t>(budget);
  int64_t eval_threads = flags.GetInt("eval-threads", 1);
  if (eval_threads > 1) {
    opts.holdout_eval_threads = static_cast<size_t>(eval_threads);
  }
  // Online feature pruning preset (ml/feature_pruner.h). Unknown values
  // are reported and ignored, matching the prefetch-flag idiom.
  std::string prune = flags.GetString("prune", "off");
  if (prune == "conservative") {
    opts.pruning = ConservativePruning();
  } else if (prune == "aggressive") {
    opts.pruning = AggressivePruning();
  } else if (prune != "off") {
    std::fprintf(stderr,
                 "unknown --prune preset '%s' "
                 "(want off|conservative|aggressive); pruning stays off\n",
                 prune.c_str());
  }
  ZOMBIE_RETURN_IF_ERROR(opts.Validate());
  return opts;
}

/// Speculative prefetch knobs (wall-clock-only; featureeng/
/// extraction_service.h). Prefetch needs the feature cache to store into,
/// so --prefetch-threads without --cache is reported and disabled.
PrefetchOptions MakePrefetchOptionsFromFlags(const Flags& flags,
                                             bool use_cache) {
  PrefetchOptions prefetch;
  int64_t threads = flags.GetInt("prefetch-threads", 0);
  int64_t arms = flags.GetInt("prefetch-arms", 4);
  if (threads > 0) prefetch.threads = static_cast<size_t>(threads);
  if (arms > 0) prefetch.max_arms = static_cast<size_t>(arms);
  if (prefetch.threads > 0 && !use_cache) {
    std::fprintf(stderr,
                 "--prefetch-threads requires --cache; prefetch disabled\n");
    prefetch.threads = 0;
  }
  return prefetch;
}

/// Opens the persistent feature store named by `path` (--store-path).
/// `retain` non-empty enables versioned invalidation at open (--store-gc).
/// Reports and returns null on failure; the caller treats null as
/// "no store" (an empty path is not an error).
std::unique_ptr<PersistentFeatureStore> OpenStore(
    const std::string& path, std::vector<uint64_t> retain) {
  if (path.empty()) return nullptr;
  PersistentFeatureStoreOptions sopts;
  sopts.retain_fingerprints = std::move(retain);
  StatusOr<std::unique_ptr<PersistentFeatureStore>> store =
      PersistentFeatureStore::Open(path, std::move(sopts));
  if (!store.ok()) {
    std::fprintf(stderr, "cannot open store: %s\n",
                 store.status().ToString().c_str());
    return nullptr;
  }
  if (!store.value()->writable()) {
    std::printf("store: %s opened read-only (another writer is active)\n",
                path.c_str());
  }
  return std::move(store).value();
}

void PrintStoreStats(const PersistentFeatureStore& store) {
  PersistentFeatureStoreStats s = store.Stats();
  std::printf(
      "store: %llu entries (%llu recovered, %llu appended), hit rate %.3f "
      "(%llu hits / %llu lookups), %llu invalidated, %llu corrupt skipped%s\n",
      static_cast<unsigned long long>(s.entries),
      static_cast<unsigned long long>(s.recovered),
      static_cast<unsigned long long>(s.appends), s.hit_rate(),
      static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.hits + s.misses),
      static_cast<unsigned long long>(s.invalidated),
      static_cast<unsigned long long>(s.corrupt_skipped),
      s.writable ? "" : " [read-only]");
}

// ---------------------------------------------------------------------------
// Observability plumbing shared by run/session
// ---------------------------------------------------------------------------

struct ObsOutputs {
  std::string trace_path;
  std::string metrics_path;
  std::string decisions_path;

  bool any() const {
    return !trace_path.empty() || !metrics_path.empty() ||
           !decisions_path.empty();
  }
};

ObsOutputs GetObsOutputs(const Flags& flags) {
  ObsOutputs out;
  out.trace_path = flags.GetString("trace-out", "");
  out.metrics_path = flags.GetString("metrics-out", "");
  out.decisions_path = flags.GetString("decisions-out", "");
  return out;
}

/// Builds a context with exactly the sinks the requested outputs need, or
/// null when no --*-out flag was given (keeps the hot path uninstrumented).
std::unique_ptr<ObsContext> MakeObsContext(const ObsOutputs& out) {
  if (!out.any()) return nullptr;
  ObsOptions opts;
  opts.trace = !out.trace_path.empty();
  opts.metrics = !out.metrics_path.empty();
  opts.decision_log = !out.decisions_path.empty();
  return std::make_unique<ObsContext>(opts);
}

/// Writes each requested sink; returns false (after reporting) on IO error.
bool WriteObsOutputs(const ObsOutputs& out, const ObsContext& obs) {
  bool ok = true;
  auto report = [&ok](const Status& st, const std::string& what,
                      const std::string& path) {
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      ok = false;
    } else {
      std::printf("%s written to %s\n", what.c_str(), path.c_str());
    }
  };
  if (!out.metrics_path.empty()) {
    report(obs.metrics()->WriteJson(out.metrics_path), "metrics",
           out.metrics_path);
  }
  if (!out.trace_path.empty()) {
    report(obs.trace()->WriteJson(out.trace_path), "trace", out.trace_path);
  }
  if (!out.decisions_path.empty()) {
    report(obs.decisions()->WriteJsonl(out.decisions_path), "decision log",
           out.decisions_path);
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

/// Reports `st` on one stderr line; the exit code of a failed subcommand.
int Fail(const Status& st) {
  std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return 1;
}

int CmdGenerate(const Flags& flags) {
  StatusOr<TaskKind> kind = ParseTaskKind(flags.GetString("task", "webcat"));
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 1;
  }
  std::string out = flags.GetString("out", "corpus.zmbc");
  Task task = MakeTask(kind.value(),
                       static_cast<size_t>(flags.GetInt("docs", 12000)),
                       static_cast<uint64_t>(flags.GetInt("seed", 42)));
  ZCHECK_OK(flags.CheckAllConsumed());
  Status st = SaveCorpus(task.corpus, out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  CorpusStats stats = task.corpus.ComputeStats();
  std::printf("wrote %s: %zu docs, %.1f%% positive\n", out.c_str(),
              stats.num_documents, 100.0 * stats.positive_fraction);
  return 0;
}

int CmdInspect(const Flags& flags) {
  StatusOr<Corpus> corpus = ObtainCorpus(flags);
  ZCHECK_OK(flags.CheckAllConsumed());
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  CorpusStats s = corpus.value().ComputeStats();
  std::printf("name:               %s\n", corpus.value().name().c_str());
  std::printf("documents:          %zu\n", s.num_documents);
  std::printf("positive fraction:  %.3f\n", s.positive_fraction);
  std::printf("mean length:        %.1f tokens\n", s.mean_length);
  std::printf("mean extract cost:  %.2f ms\n", s.mean_extraction_cost_ms);
  std::printf("domains:            %zu\n", s.num_domains);
  std::printf("vocabulary:         %zu terms\n", s.vocabulary_size);
  return 0;
}

int CmdRun(const Flags& flags) {
  StatusOr<EngineOptions> opts_or = MakeEngineOptionsFromFlags(flags);
  if (!opts_or.ok()) return Fail(opts_or.status());
  const EngineOptions opts = opts_or.value();
  StatusOr<size_t> groups = GroupCountFromFlags(flags);
  if (!groups.ok()) return Fail(groups.status());
  StatusOr<Corpus> corpus_or = ObtainCorpus(flags);
  if (!corpus_or.ok()) return Fail(corpus_or.status());
  Corpus corpus = std::move(corpus_or).value();
  StatusOr<TaskKind> kind = ParseTaskKind(flags.GetString("task", "webcat"));
  if (!kind.ok()) return Fail(kind.status());
  FeaturePipeline pipeline = MakeDefaultPipeline(kind.value(), corpus);

  auto grouper = MakeGrouperFromFlags(flags, groups.value());
  StatusOr<PolicyKind> policy_kind = ParsePolicyKindFromFlags(flags);
  auto reward = MakeRewardFromFlags(flags);
  auto learner = MakeLearnerFromFlags(flags);
  if (!grouper || !policy_kind.ok() || !reward || !learner) {
    std::fprintf(stderr, "unknown grouper/policy/reward/learner\n");
    return 1;
  }
  bool with_baseline = flags.GetBool("baseline");
  bool use_cache = flags.GetBool("cache");
  PrefetchOptions prefetch = MakePrefetchOptionsFromFlags(flags, use_cache);
  size_t trials = static_cast<size_t>(flags.GetInt("trials", 1));
  size_t threads = static_cast<size_t>(flags.GetInt("threads", 1));
  std::string csv = flags.GetString("csv", "");
  std::string fingerprint_out = flags.GetString("fingerprint-out", "");
  std::string store_path = flags.GetString("store-path", "");
  bool store_gc = flags.GetBool("store-gc");
  // Streaming ingestion: --stream=F holds back the last F of the corpus
  // and replays it as a virtual-time arrival schedule.
  double stream_fraction = flags.GetDouble("stream", 0.0);
  double ingest_rate = flags.GetDouble("ingest-rate", 100.0);
  ArrivalOrder stream_order =
      ParseArrivalOrder(flags.GetString("stream-order", "corpus"));
  uint64_t stream_seed = static_cast<uint64_t>(flags.GetInt("stream-seed", 17));
  ObsOutputs obs_out = GetObsOutputs(flags);
  if (Status st = flags.CheckAllConsumed(); !st.ok()) return Fail(st);
  if (trials == 0) trials = 1;

  // The store retains everything by default; --store-gc keeps only this
  // run's pipeline fingerprint (drops records from other feature code).
  std::vector<uint64_t> retain;
  if (store_gc) retain.push_back(pipeline.Fingerprint());
  std::unique_ptr<PersistentFeatureStore> store =
      OpenStore(store_path, std::move(retain));
  if (!store_path.empty() && store == nullptr) return 1;

  // Streaming setup: the base grouping covers only the offline prefix; the
  // held-back suffix becomes the arrival schedule every trial replays.
  const bool streaming = stream_fraction > 0.0;
  std::unique_ptr<IncrementalGrouper> owned_igrouper;
  IncrementalGrouper* igrouper = nullptr;
  std::unique_ptr<ScheduledCorpusSource> source;
  GroupingResult grouping;
  if (streaming) {
    if (stream_fraction >= 1.0) {
      std::fprintf(stderr, "--stream must be in (0, 1)\n");
      return 1;
    }
    igrouper =
        StreamingGrouper(flags, groups.value(), grouper.get(), &owned_igrouper);
    if (igrouper == nullptr) {
      std::fprintf(stderr,
                   "--stream supports --grouper=kmeans|metadata|token only\n");
      return 1;
    }
    size_t base = corpus.size() -
                  static_cast<size_t>(stream_fraction *
                                      static_cast<double>(corpus.size()));
    base = std::max<size_t>(std::min(base, corpus.size()), 1);
    ArrivalScheduleOptions sopts;
    sopts.docs_per_virtual_second = ingest_rate;
    sopts.order = stream_order;
    sopts.seed = stream_seed;
    source = std::make_unique<ScheduledCorpusSource>(
        &corpus, base, BuildArrivalSchedule(corpus, base, sopts));
    grouping = igrouper->GroupBase(corpus, base);
    std::printf("stream: base %zu of %zu docs, %zu arrivals at %.1f "
                "docs/virtual-second (%s order)\n",
                base, corpus.size(), source->arrivals().size(), ingest_rate,
                ArrivalOrderName(stream_order));
  } else {
    grouping = grouper->Group(corpus);
  }
  std::printf("index: %zu groups via %s (%s wall)\n", grouping.num_groups(),
              grouping.method.c_str(),
              FormatDuration(grouping.build_wall_micros).c_str());

  // Trials run on the experiment driver (seeds run_seed..run_seed+trials-1,
  // --threads workers); an optional shared feature cache memoizes
  // extraction across trials of the identical pipeline.
  FeatureCache cache;
  std::unique_ptr<ObsContext> obs = MakeObsContext(obs_out);
  ExperimentDriverOptions dopts;
  dopts.num_threads = threads;
  dopts.engine = opts;
  dopts.engine.obs = obs.get();
  dopts.cache = use_cache ? &cache : nullptr;
  dopts.prefetch = prefetch;
  dopts.store = store.get();
  dopts.stream = source.get();
  dopts.incremental_grouper = igrouper;
  ExperimentDriver driver(&corpus, &pipeline, dopts);
  ExperimentGrid grid;
  grid.policies = {policy_kind.value()};
  grid.groupings = {&grouping};
  grid.rewards = {reward.get()};
  grid.learners = {learner.get()};
  for (size_t t = 0; t < trials; ++t) grid.seeds.push_back(opts.seed + t);
  StatusOr<std::vector<TrialResult>> trials_or = driver.RunGrid(grid);
  if (!trials_or.ok()) return Fail(trials_or.status());
  for (const TrialResult& t : trials_or.value()) {
    std::printf("zombie[s%llu]: %s\n",
                static_cast<unsigned long long>(t.spec.seed),
                t.run.ToString().c_str());
  }
  if (use_cache) {
    FeatureCacheStats cs = cache.Stats();
    std::printf("cache: %zu entries, hit rate %.3f (%zu hits / %zu lookups), "
                "%zu evictions\n",
                cs.entries, cs.hit_rate(), cs.hits, cs.hits + cs.misses,
                cs.evictions);
  }
  if (store != nullptr) PrintStoreStats(*store);
  const RunResult& zombie = trials_or.value().front().run;

  if (with_baseline) {
    ZombieEngine baseline_engine(&corpus, &pipeline, FullScanOptions(opts));
    RunResult baseline = RunRandomBaseline(baseline_engine, *learner);
    std::printf("baseline: %s\n", baseline.ToString().c_str());
    SpeedupReport report = ComputeSpeedup(baseline, zombie, 0.95);
    std::printf("%s\n", report.ToString().c_str());
  }

  if (!csv.empty()) {
    std::FILE* f = std::fopen(csv.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", csv.c_str());
      return 1;
    }
    std::string data = zombie.curve.ToCsv();
    std::fwrite(data.data(), 1, data.size(), f);
    std::fclose(f);
    std::printf("curve written to %s\n", csv.c_str());
  }
  if (!fingerprint_out.empty()) {
    // Canonical deterministic fingerprints for every trial; the SIMD
    // forced-dispatch CI matrix byte-compares these files across
    // ZOMBIE_SIMD_LEVEL runs.
    std::FILE* f = std::fopen(fingerprint_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", fingerprint_out.c_str());
      return 1;
    }
    for (const TrialResult& t : trials_or.value()) {
      std::string fp = StrFormat("trial seed=%llu\n",
                                 static_cast<unsigned long long>(t.spec.seed))
                       + t.run.Fingerprint();
      std::fwrite(fp.data(), 1, fp.size(), f);
    }
    std::fclose(f);
    std::printf("fingerprints written to %s\n", fingerprint_out.c_str());
  }
  if (obs != nullptr && !WriteObsOutputs(obs_out, *obs)) return 1;
  return 0;
}

int CmdSession(const Flags& flags) {
  StatusOr<EngineOptions> opts_or = MakeEngineOptionsFromFlags(flags);
  if (!opts_or.ok()) return Fail(opts_or.status());
  EngineOptions opts = opts_or.value();
  StatusOr<size_t> groups = GroupCountFromFlags(flags);
  if (!groups.ok()) return Fail(groups.status());
  StatusOr<Corpus> corpus_or = ObtainCorpus(flags);
  if (!corpus_or.ok()) return Fail(corpus_or.status());
  Corpus corpus = std::move(corpus_or).value();
  bool warm = flags.GetBool("warm");
  bool use_cache = flags.GetBool("cache");
  PrefetchOptions prefetch = MakePrefetchOptionsFromFlags(flags, use_cache);
  std::string store_path = flags.GetString("store-path", "");
  ObsOutputs obs_out = GetObsOutputs(flags);
  if (Status st = flags.CheckAllConsumed(); !st.ok()) return Fail(st);

  // A session spans many pipeline fingerprints (one per revision), so it
  // always retains everything.
  std::unique_ptr<PersistentFeatureStore> store = OpenStore(store_path, {});
  if (!store_path.empty() && store == nullptr) return 1;

  std::unique_ptr<ObsContext> obs = MakeObsContext(obs_out);
  opts.obs = obs.get();
  RevisionScript script = MakeWebCatRevisionScript();
  NaiveBayesLearner learner;
  LabelReward reward;
  FeatureCache cache;
  FeatureCache* cache_ptr = use_cache ? &cache : nullptr;
  SessionResult full = RunSession(corpus, script, SessionMode::kFullScan,
                                  nullptr, learner, reward, opts);
  KMeansGrouper grouper(groups.value(), 7);
  SessionResult fast = RunSession(corpus, script, SessionMode::kZombie,
                                  &grouper, learner, reward, opts, warm,
                                  cache_ptr, prefetch, store.get());
  std::printf("%s\n%s\n", full.ToString().c_str(), fast.ToString().c_str());
  if (use_cache) {
    FeatureCacheStats cs = cache.Stats();
    std::printf("cache: %zu entries, hit rate %.3f (%zu hits / %zu lookups), "
                "%zu evictions\n",
                cs.entries, cs.hit_rate(), cs.hits, cs.hits + cs.misses,
                cs.evictions);
  }
  if (store != nullptr) PrintStoreStats(*store);
  double ratio = fast.total_virtual_micros > 0
                     ? static_cast<double>(full.total_virtual_micros) /
                           static_cast<double>(fast.total_virtual_micros)
                     : 0.0;
  std::printf("session speedup: %.2fx\n", ratio);
  if (obs != nullptr) {
    if (use_cache && obs->metrics() != nullptr) {
      cache.ExportMetrics(obs->metrics());
    }
    if (store != nullptr && obs->metrics() != nullptr) {
      // Final snapshot: the per-run exports inside the engine already set
      // the store.* gauges, but the session's last lookups may postdate
      // the last run's export.
      store->ExportMetrics(obs->metrics());
    }
    if (!WriteObsOutputs(obs_out, *obs)) return 1;
  }
  return 0;
}

int CmdSimdLevel(const Flags& flags) {
  // Machine-readable (--print=...) or human-readable report of the SIMD
  // dispatch resolution; CI uses `--print=active` to auto-skip forced
  // levels the runner cannot actually execute.
  std::string print = flags.GetString("print", "");
  Status st = flags.CheckAllConsumed();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const simd::SimdLevel detected = simd::DetectCpuSimdLevel();
  const simd::SimdLevel compiled = simd::CompiledSimdLevel();
  const simd::SimdLevel active = simd::ActiveSimdLevel();
  if (print == "active") {
    std::printf("%s\n", simd::SimdLevelName(active));
    return 0;
  }
  if (print == "detected") {
    std::printf("%s\n", simd::SimdLevelName(detected));
    return 0;
  }
  if (!print.empty()) {
    std::fprintf(stderr, "unknown --print=%s (want active or detected)\n",
                 print.c_str());
    return 1;
  }
  const char* forced = std::getenv("ZOMBIE_SIMD_LEVEL");
  std::printf("detected cpu:  %s\n", simd::SimdLevelName(detected));
  std::printf("compiled max:  %s\n", simd::SimdLevelName(compiled));
  std::printf("forced (env):  %s\n", forced != nullptr ? forced : "(unset)");
  std::printf("active:        %s\n", simd::SimdLevelName(active));
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: zombie_cli <generate|inspect|run|session|simd-level> "
               "[--key=value ...]\n"
               "see the header comment of tools/zombie_cli.cc for flags\n");
  return 2;
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  if (argc < 2) return Usage();
  Flags flags;
  Status st = flags.Parse(argc, argv, 2);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(flags);
  if (cmd == "inspect") return CmdInspect(flags);
  if (cmd == "run") return CmdRun(flags);
  if (cmd == "session") return CmdSession(flags);
  if (cmd == "simd-level") return CmdSimdLevel(flags);
  return Usage();
}

}  // namespace
}  // namespace cli
}  // namespace zombie

int main(int argc, char** argv) { return zombie::cli::Main(argc, argv); }
