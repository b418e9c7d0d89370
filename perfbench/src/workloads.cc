#include "workloads.h"

#include <filesystem>
#include <utility>
#include <vector>

#include "bandit/policy.h"
#include "core/config.h"
#include "core/experiment_driver.h"
#include "core/reward.h"
#include "core/run_result.h"
#include "core/session.h"
#include "core/task_factory.h"
#include "data/corpus.h"
#include "data/corpus_source.h"
#include "data/serialization.h"
#include "featureeng/feature_cache.h"
#include "featureeng/persistent_feature_store.h"
#include "featureeng/pipeline.h"
#include "featureeng/revision_script.h"
#include "index/grouper.h"
#include "index/incremental_grouper.h"
#include "index/kmeans_grouper.h"
#include "ml/learner.h"
#include "ml/naive_bayes.h"
#include "ml/pegasos_svm.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using zombie::Corpus;
using zombie::ExperimentDriver;
using zombie::ExperimentDriverOptions;
using zombie::ExperimentGrid;
using zombie::FeaturePipeline;
using zombie::GroupingResult;
using zombie::ObsContext;
using zombie::Status;
using zombie::TraceRecorder;
using zombie::TraceSpan;

// The `zombie_cli run` / `session` defaults the workloads reproduce.
constexpr size_t kGroups = 32;
constexpr uint64_t kGrouperSeed = 7;
constexpr uint64_t kRunSeed = 1;  // --run_seed
// Trial seeds of one oneshot_kmeans or stream_store pass. Item counts, and
// so op walls, vary a lot from seed to seed, so a pass covers many.
constexpr uint64_t kTrialsPerPass = 32;
// `run --stream=0.5 --stream-order=domain --ingest-rate=50`.
constexpr double kStreamFraction = 0.5;
constexpr double kIngestRate = 50.0;
constexpr uint64_t kStreamScheduleSeed = 17;
constexpr size_t kPrefetchThreads = 2;

TraceRecorder* TraceOf(ObsContext* obs) {
  return obs != nullptr ? obs->trace() : nullptr;
}

std::string SeedKey(uint64_t seed) {
  return zombie::StrFormat("s%llu", static_cast<unsigned long long>(seed));
}

zombie::EngineOptions ShapeEngineOptions(ObsContext* obs) {
  zombie::EngineOptions opts;  // shipped defaults: 1 holdout-eval thread
  opts.seed = kRunSeed;
  opts.obs = obs;
  return opts;
}

/// LoadCorpus under a "data.load" span.
zombie::StatusOr<std::unique_ptr<Corpus>> LoadCorpusSpanned(
    const std::string& path, TraceRecorder* trace) {
  TraceSpan span(trace, "data.load", kBenchCategory);
  zombie::StatusOr<Corpus> corpus = zombie::LoadCorpus(path);
  if (!corpus.ok()) return corpus.status();
  return std::make_unique<Corpus>(std::move(corpus).value());
}

/// The task's default pipeline under a "featureeng.pipeline" span.
std::unique_ptr<FeaturePipeline> BuildPipelineSpanned(const Corpus& corpus,
                                                      TraceRecorder* trace) {
  TraceSpan span(trace, "featureeng.pipeline", kBenchCategory);
  return std::make_unique<FeaturePipeline>(
      zombie::MakeDefaultPipeline(zombie::TaskKind::kWebCat, corpus));
}

/// One pass of single-seed RunGrid ops over trial seeds 1..kTrialsPerPass,
/// each op keyed by its seed.
void RunTrials(const ExperimentDriver& driver, zombie::PolicyKind policy,
               const GroupingResult& grouping,
               const zombie::RewardFunction& reward,
               const zombie::Learner& learner, ObsContext* obs, OpLog* log) {
  for (uint64_t seed = 1; seed <= kTrialsPerPass; ++seed) {
    ExperimentGrid grid;
    grid.policies = {policy};
    grid.groupings = {&grouping};
    grid.rewards = {&reward};
    grid.learners = {&learner};
    grid.seeds = {seed};
    zombie::RunResult run;
    log->Run(
        SeedKey(seed), TraceOf(obs),
        [&] {
          zombie::StatusOr<std::vector<zombie::TrialResult>> trials =
              driver.RunGrid(grid);
          if (!trials.ok()) return trials.status();
          if (trials.value().size() != 1) {
            return Status::Internal("expected one trial per op");
          }
          run = std::move(trials.value().front().run);
          return Status::OK();
        },
        [&] {
          OpOutput out;
          // Byte for byte what `zombie_cli run --fingerprint-out` writes.
          out.fingerprint = "trial seed=" + std::to_string(seed) + "\n" +
                            run.Fingerprint();
          out.items = run.items_processed;
          out.virtual_s =
              static_cast<double>(run.total_virtual_micros()) / 1e6;
          out.quality = run.final_quality;
          return out;
        });
  }
}

/// Canonical rendering of a session: the index charge, then one line per
/// revision (items, virtual microseconds, quality, stop reason).
std::string RenderSession(const zombie::SessionResult& s) {
  std::string out = zombie::StrFormat(
      "session %s index_virtual_us=%lld total_virtual_us=%lld best=%.17g\n",
      zombie::SessionModeName(s.mode),
      static_cast<long long>(s.index_virtual_micros),
      static_cast<long long>(s.total_virtual_micros), s.best_quality);
  for (const zombie::RevisionOutcome& r : s.revisions) {
    out += zombie::StrFormat(
        "%s items=%zu virtual_us=%lld quality=%.17g stop=%s\n",
        r.revision_name.c_str(), r.items_processed,
        static_cast<long long>(r.virtual_micros), r.final_quality,
        zombie::StopReasonName(r.stop_reason));
  }
  return out;
}

/// Forwards Grouper::Group under an "index.build" span, so the index build
/// inside RunSession shows in the trace without touching the program.
class SpannedGrouper : public zombie::Grouper {
 public:
  SpannedGrouper(zombie::Grouper* inner, TraceRecorder* trace)
      : inner_(inner), trace_(trace) {}

  GroupingResult Group(const Corpus& corpus) override {
    TraceSpan span(trace_, "index.build", kBenchCategory);
    GroupingResult grouping = inner_->Group(corpus);
    groups_ = grouping.num_groups();
    return grouping;
  }

  std::string name() const override { return inner_->name(); }

  size_t groups() const { return groups_; }

 private:
  zombie::Grouper* inner_;
  TraceRecorder* trace_;
  size_t groups_ = 0;
};

// ---------------------------------------------------------------------------
// oneshot_kmeans: `zombie_cli run --grouper=kmeans` — offline k-means index
// in set-up, then short single-seed egreedy/label/nb runs on 1 thread.
// ---------------------------------------------------------------------------
class OneshotKMeans : public Workload {
 public:
  explicit OneshotKMeans(std::string corpus_path)
      : corpus_path_(std::move(corpus_path)) {}

  Status Setup(TraceRecorder* trace) override {
    zombie::StatusOr<std::unique_ptr<Corpus>> corpus =
        LoadCorpusSpanned(corpus_path_, trace);
    if (!corpus.ok()) return corpus.status();
    corpus_ = std::move(corpus).value();
    pipeline_ = BuildPipelineSpanned(*corpus_, trace);
    TraceSpan span(trace, "index.build", kBenchCategory);
    zombie::KMeansGrouper grouper(kGroups, kGrouperSeed);
    grouping_ = grouper.Group(*corpus_);
    return Status::OK();
  }

  Status RunPass(ObsContext* obs, OpLog* log) override {
    ExperimentDriverOptions dopts;
    dopts.num_threads = 1;
    dopts.engine = ShapeEngineOptions(obs);
    ExperimentDriver driver(corpus_.get(), pipeline_.get(), dopts);
    RunTrials(driver, zombie::PolicyKind::kEpsilonGreedy, grouping_, reward_,
              learner_, obs, log);
    if (obs != nullptr) tally_.index_groups = grouping_.num_groups();
    return Status::OK();
  }

 private:
  std::string corpus_path_;
  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<FeaturePipeline> pipeline_;
  GroupingResult grouping_;
  zombie::LabelReward reward_;
  zombie::NaiveBayesLearner learner_;
};

// ---------------------------------------------------------------------------
// session_e8: `zombie_cli session --warm` — one op replays the WebCat
// revision script as a full scan, then as a warm-started Zombie session
// whose k-means index is built inside the op.
// ---------------------------------------------------------------------------
class SessionE8 : public Workload {
 public:
  explicit SessionE8(std::string corpus_path)
      : corpus_path_(std::move(corpus_path)) {}

  Status Setup(TraceRecorder* trace) override {
    zombie::StatusOr<std::unique_ptr<Corpus>> corpus =
        LoadCorpusSpanned(corpus_path_, trace);
    if (!corpus.ok()) return corpus.status();
    corpus_ = std::move(corpus).value();
    script_ = std::make_unique<zombie::RevisionScript>(
        zombie::MakeWebCatRevisionScript());
    return Status::OK();
  }

  Status RunPass(ObsContext* obs, OpLog* log) override {
    TraceRecorder* trace = TraceOf(obs);
    zombie::SessionResult full;
    zombie::SessionResult fast;
    size_t groups = 0;
    log->Run(
        "session", trace,
        [&] {
          zombie::NaiveBayesLearner learner;
          zombie::LabelReward reward;
          const zombie::EngineOptions opts = ShapeEngineOptions(obs);
          full = zombie::RunSession(*corpus_, *script_,
                                    zombie::SessionMode::kFullScan, nullptr,
                                    learner, reward, opts);
          zombie::KMeansGrouper kmeans(kGroups, kGrouperSeed);
          SpannedGrouper grouper(&kmeans, trace);
          fast = zombie::RunSession(*corpus_, *script_,
                                    zombie::SessionMode::kZombie, &grouper,
                                    learner, reward, opts,
                                    /*warm_start_bandit=*/true);
          groups = grouper.groups();
          return Status::OK();
        },
        [&] {
          OpOutput out;
          out.fingerprint = RenderSession(full) + RenderSession(fast);
          for (const zombie::SessionResult* s : {&full, &fast}) {
            for (const zombie::RevisionOutcome& r : s->revisions) {
              out.items += r.items_processed;
            }
          }
          out.virtual_s = static_cast<double>(full.total_virtual_micros +
                                              fast.total_virtual_micros) /
                          1e6;
          out.quality = fast.best_quality;
          return out;
        });
    if (obs != nullptr) tally_.index_groups = groups;
    return Status::OK();
  }

 private:
  std::string corpus_path_;
  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<zombie::RevisionScript> script_;
};

// ---------------------------------------------------------------------------
// stream_store: `zombie_cli run --stream=0.5 --stream-order=domain
// --ingest-rate=50 --grouper=metadata --policy=thompson --learner=svm
// --cache --prefetch-threads=2 --store-path=...`. A pass runs the seed list
// cold (a fresh store in a fresh directory), then restarts: reopens the
// store into a fresh cache and runs the same seeds again, which must
// reproduce the cold pass byte for byte.
// ---------------------------------------------------------------------------
class StreamStore : public Workload {
 public:
  StreamStore(std::string corpus_path, const std::string& workdir)
      : corpus_path_(std::move(corpus_path)),
        store_dir_(std::filesystem::path(workdir) / "store") {}

  ~StreamStore() override {
    store_.reset();
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
  }

  Status Setup(TraceRecorder* trace) override {
    zombie::StatusOr<std::unique_ptr<Corpus>> corpus =
        LoadCorpusSpanned(corpus_path_, trace);
    if (!corpus.ok()) return corpus.status();
    corpus_ = std::move(corpus).value();
    pipeline_ = BuildPipelineSpanned(*corpus_, trace);
    const size_t held_back = static_cast<size_t>(
        kStreamFraction * static_cast<double>(corpus_->size()));
    const size_t base = std::max<size_t>(corpus_->size() - held_back, 1);
    zombie::ArrivalScheduleOptions sopts;
    sopts.docs_per_virtual_second = kIngestRate;
    sopts.order = zombie::ArrivalOrder::kDomainGrouped;
    sopts.seed = kStreamScheduleSeed;
    source_ = std::make_unique<zombie::ScheduledCorpusSource>(
        corpus_.get(), base,
        zombie::BuildArrivalSchedule(*corpus_, base, sopts));
    {
      TraceSpan span(trace, "index.build", kBenchCategory);
      zombie::IncrementalMetadataOptions gopts;
      gopts.max_groups = kGroups;
      grouper_ = std::make_unique<zombie::IncrementalMetadataGrouper>(gopts);
      grouping_ = grouper_->GroupBase(*corpus_, base);
    }
    return OpenStore(trace, /*fresh=*/true);
  }

  Status RunPass(ObsContext* obs, OpLog* log) override {
    TraceRecorder* trace = TraceOf(obs);
    if (store_ == nullptr) ZOMBIE_RETURN_IF_ERROR(OpenStore(trace, true));
    RunSeeds(obs, log);  // cold: extraction writes cache and store
    CloseStore(obs);
    ZOMBIE_RETURN_IF_ERROR(OpenStore(trace, false));
    RunSeeds(obs, log);  // restart: store hits promote into a fresh cache
    CloseStore(obs);
    return Status::OK();
  }

 private:
  /// PersistentFeatureStore::Open under a "featureeng.store_open" span;
  /// `fresh` first replaces the store directory with an empty one.
  Status OpenStore(TraceRecorder* trace, bool fresh) {
    if (fresh) {
      std::error_code ec;
      std::filesystem::remove_all(store_dir_, ec);
      std::filesystem::create_directories(store_dir_, ec);
      if (ec) {
        return Status::IOError("cannot create " + store_dir_.string() + ": " +
                               ec.message());
      }
    }
    TraceSpan span(trace, "featureeng.store_open", kBenchCategory);
    zombie::StatusOr<std::unique_ptr<zombie::PersistentFeatureStore>> store =
        zombie::PersistentFeatureStore::Open(
            (store_dir_ / "features.zfs").string());
    if (!store.ok()) return store.status();
    store_ = std::move(store).value();
    if (!store_->writable()) {
      return Status::FailedPrecondition("store opened read-only: " +
                                        store_->path());
    }
    return Status::OK();
  }

  void CloseStore(ObsContext* obs) {
    if (obs != nullptr) {
      const zombie::PersistentFeatureStoreStats s = store_->Stats();
      tally_.store_hits += s.hits;
      tally_.store_misses += s.misses;
      tally_.store_appends += s.appends;
    }
    store_.reset();
  }

  void RunSeeds(ObsContext* obs, OpLog* log) {
    zombie::FeatureCache cache;
    ExperimentDriverOptions dopts;
    dopts.num_threads = 1;
    dopts.engine = ShapeEngineOptions(obs);
    dopts.cache = &cache;
    dopts.prefetch.threads = kPrefetchThreads;
    dopts.store = store_.get();
    dopts.stream = source_.get();
    dopts.incremental_grouper = grouper_.get();
    ExperimentDriver driver(corpus_.get(), pipeline_.get(), dopts);
    RunTrials(driver, zombie::PolicyKind::kThompson, grouping_, reward_,
              learner_, obs, log);
    if (obs != nullptr) tally_.index_groups = grouping_.num_groups();
  }

  std::string corpus_path_;
  std::filesystem::path store_dir_;
  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<FeaturePipeline> pipeline_;
  std::unique_ptr<zombie::ScheduledCorpusSource> source_;
  std::unique_ptr<zombie::IncrementalMetadataGrouper> grouper_;
  GroupingResult grouping_;
  std::unique_ptr<zombie::PersistentFeatureStore> store_;
  zombie::LabelReward reward_;
  zombie::PegasosSvmLearner learner_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& corpus_path,
                                       const std::string& workdir) {
  if (name == "oneshot_kmeans") {
    return std::make_unique<OneshotKMeans>(corpus_path);
  }
  if (name == "session_e8") return std::make_unique<SessionE8>(corpus_path);
  if (name == "stream_store") {
    return std::make_unique<StreamStore>(corpus_path, workdir);
  }
  return nullptr;
}

Status GenerateCorpus(uint64_t seed, const std::string& path) {
  zombie::Task task = zombie::MakeTask(zombie::TaskKind::kWebCat, kDocs, seed);
  return zombie::SaveCorpus(task.corpus, path);
}

}  // namespace perfbench
