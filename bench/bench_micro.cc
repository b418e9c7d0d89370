// E11 — substrate microbenchmarks (google-benchmark): the hot paths of the
// inner loop and the index build.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bandit/epsilon_greedy.h"
#include "bandit/ucb1.h"
#include "bench_common.h"
#include "core/task_factory.h"
#include "data/webcat_generator.h"
#include "featureeng/feature_cache.h"
#include "index/kmeans.h"
#include "index/signature.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/sparse_vector.h"
#include "text/hashing_vectorizer.h"
#include "text/tokenizer.h"
#include "util/logging.h"
#include "util/random.h"

namespace zombie {
namespace {

SparseVector RandomVector(Rng* rng, uint32_t dim, size_t nnz) {
  std::vector<std::pair<uint32_t, double>> pairs;
  pairs.reserve(nnz);
  for (size_t i = 0; i < nnz; ++i) {
    pairs.emplace_back(static_cast<uint32_t>(rng->NextBelow(dim)),
                       rng->NextGaussian());
  }
  return SparseVector::FromPairs(std::move(pairs));
}

// Vector-pair pool for the sparse-kernel benchmarks. Benchmarking one pair
// repeatedly lets the branch predictor memorize the entire merge sequence
// — a state production code never reaches, since the engine dots each
// incoming example against ever-changing model state. Cycling a pool of
// distinct pairs keeps per-element branch outcomes data-random, which is
// what the kernels actually face (and what separates the merge variants:
// the run-skipping Dot is ~1.6x faster than a three-way merge here, while
// they tie on a single memorized pair).
constexpr size_t kSparsePool = 64;

std::vector<SparseVector> RandomVectorPool(uint64_t seed, uint32_t dim,
                                           size_t nnz) {
  Rng rng(seed);
  std::vector<SparseVector> pool;
  pool.reserve(kSparsePool);
  for (size_t p = 0; p < kSparsePool; ++p) {
    pool.push_back(RandomVector(&rng, dim, nnz));
  }
  return pool;
}

void BM_SparseDotSparse(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  std::vector<SparseVector> as = RandomVectorPool(1, 8192, nnz);
  std::vector<SparseVector> bs = RandomVectorPool(101, 8192, nnz);
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t p = 0; p < kSparsePool; ++p) acc += as[p].Dot(bs[p]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSparsePool));
}
BENCHMARK(BM_SparseDotSparse)->Arg(32)->Arg(128)->Arg(512);

void BM_SparseDotDense(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  std::vector<SparseVector> as = RandomVectorPool(2, 8192, nnz);
  std::vector<double> dense(8192, 0.5);
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t p = 0; p < kSparsePool; ++p) acc += as[p].Dot(dense);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSparsePool));
}
BENCHMARK(BM_SparseDotDense)->Arg(32)->Arg(128)->Arg(512);

void BM_SparseFromPairs(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::pair<uint32_t, double>> pairs;
  for (int i = 0; i < state.range(0); ++i) {
    pairs.emplace_back(static_cast<uint32_t>(rng.NextBelow(8192)), 1.0);
  }
  for (auto _ : state) {
    auto copy = pairs;
    benchmark::DoNotOptimize(SparseVector::FromPairs(std::move(copy)));
  }
}
BENCHMARK(BM_SparseFromPairs)->Arg(128)->Arg(1024);

// --- Text hot path: owned-string tokenize+vectorize vs the view path. ----

std::string SyntheticDocument(size_t words) {
  Rng rng(14);
  static const char* kWords[] = {"zombie",  "feature",  "bandit", "input",
                                 "select",  "corpus",   "group",  "reward",
                                 "holdout", "pipeline", "sparse", "kernel"};
  std::string text;
  for (size_t i = 0; i < words; ++i) {
    text += kWords[rng.NextBelow(sizeof(kWords) / sizeof(kWords[0]))];
    text += (i % 11 == 0) ? ", " : " ";
  }
  return text;
}

// Document sizes mirror the sparse benches' nnz sweep: a short snippet, a
// typical crawl page, and a long article.
void BM_Tokenize(benchmark::State& state) {
  Tokenizer tokenizer;
  const std::string text =
      SyntheticDocument(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(text));
  }
}
BENCHMARK(BM_Tokenize)->Arg(100)->Arg(400)->Arg(1600);

void BM_TokenizeViews(benchmark::State& state) {
  Tokenizer tokenizer;
  const std::string text =
      SyntheticDocument(static_cast<size_t>(state.range(0)));
  TokenBuffer buffer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.TokenizeViews(text, &buffer));
  }
}
BENCHMARK(BM_TokenizeViews)->Arg(100)->Arg(400)->Arg(1600);

void BM_Vectorize(benchmark::State& state) {
  Tokenizer tokenizer;
  HashingVectorizer vectorizer(1 << 18, /*signed_hash=*/true);
  const std::string text =
      SyntheticDocument(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vectorizer.Transform(tokenizer.Tokenize(text)));
  }
}
BENCHMARK(BM_Vectorize)->Arg(100)->Arg(400)->Arg(1600);

void BM_VectorizeViews(benchmark::State& state) {
  Tokenizer tokenizer;
  HashingVectorizer vectorizer(1 << 18, /*signed_hash=*/true);
  const std::string text =
      SyntheticDocument(static_cast<size_t>(state.range(0)));
  TokenBuffer buffer;
  TermCounts scratch;
  for (auto _ : state) {
    vectorizer.TransformViews(tokenizer.TokenizeViews(text, &buffer),
                              &scratch);
    benchmark::DoNotOptimize(scratch);
  }
}
BENCHMARK(BM_VectorizeViews)->Arg(100)->Arg(400)->Arg(1600);

void BM_NaiveBayesUpdate(benchmark::State& state) {
  Rng rng(4);
  NaiveBayesLearner nb;
  SparseVector x = RandomVector(&rng, 8192, 128);
  int32_t y = 0;
  for (auto _ : state) {
    nb.Update(x, y);
    y = 1 - y;
  }
}
BENCHMARK(BM_NaiveBayesUpdate);

void BM_NaiveBayesScore(benchmark::State& state) {
  Rng rng(5);
  NaiveBayesLearner nb;
  for (int i = 0; i < 200; ++i) {
    nb.Update(RandomVector(&rng, 8192, 128), i % 2);
  }
  SparseVector x = RandomVector(&rng, 8192, 128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nb.Score(x));
  }
}
BENCHMARK(BM_NaiveBayesScore);

void BM_LogisticRegressionUpdate(benchmark::State& state) {
  Rng rng(6);
  LogisticRegressionLearner lr;
  SparseVector x = RandomVector(&rng, 8192, 128);
  int32_t y = 0;
  for (auto _ : state) {
    lr.Update(x, y);
    y = 1 - y;
  }
}
BENCHMARK(BM_LogisticRegressionUpdate);

// Deliberately benchmarks the raw pipeline, not ExtractionService::Featurize:
// this measures extraction cost itself, with no cache in the loop.
void BM_PipelineExtract(benchmark::State& state) {
  Task task = MakeTask(TaskKind::kWebCat, 200, 1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        task.pipeline.Extract(task.corpus.doc(i % task.corpus.size()),
                              task.corpus));
    ++i;
  }
}
BENCHMARK(BM_PipelineExtract);

void BM_ComputeSignature(benchmark::State& state) {
  WebCatOptions opts;
  opts.num_documents = 100;
  Corpus corpus = GenerateWebCatCorpus(opts);
  SignatureConfig cfg;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeSignature(corpus.doc(i % corpus.size()), cfg));
    ++i;
  }
}
BENCHMARK(BM_ComputeSignature);

void BM_KMeans(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < state.range(0); ++i) {
    std::vector<double> row(64);
    for (double& v : row) v = rng.NextGaussian();
    rows.push_back(std::move(row));
  }
  KMeansConfig cfg;
  cfg.k = 16;
  cfg.max_iterations = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunKMeans(rows, cfg));
  }
}
BENCHMARK(BM_KMeans)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_PolicySelect_EpsilonGreedy(benchmark::State& state) {
  EpsilonGreedyPolicy policy;
  size_t arms = static_cast<size_t>(state.range(0));
  ArmStats stats(arms);
  policy.Reset(arms);
  Rng rng(8);
  for (size_t a = 0; a < arms; ++a) stats.Record(a, rng.NextDouble());
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.SelectArm(stats, &rng));
  }
}
BENCHMARK(BM_PolicySelect_EpsilonGreedy)->Arg(16)->Arg(256);

void BM_PolicySelect_Ucb1(benchmark::State& state) {
  Ucb1Policy policy;
  size_t arms = static_cast<size_t>(state.range(0));
  ArmStats stats(arms);
  Rng rng(9);
  for (size_t a = 0; a < arms; ++a) stats.Record(a, rng.NextDouble());
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.SelectArm(stats, &rng));
  }
}
BENCHMARK(BM_PolicySelect_Ucb1)->Arg(16)->Arg(256);

void BM_RngZipf(benchmark::State& state) {
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextZipf(8000, 1.1));
  }
}
BENCHMARK(BM_RngZipf);

void BM_CorpusGeneration(benchmark::State& state) {
  WebCatOptions opts;
  opts.num_documents = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateWebCatCorpus(opts));
  }
}
BENCHMARK(BM_CorpusGeneration)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_FeatureCacheLookupHit(benchmark::State& state) {
  Rng rng(11);
  FeatureCache cache;
  const size_t n = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < n; ++i) {
    cache.Insert(1, static_cast<uint32_t>(i),
                 FeatureCache::Entry{RandomVector(&rng, 8192, 64), 1, 1000});
  }
  uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Lookup(1, i++ % static_cast<uint32_t>(n)));
  }
}
BENCHMARK(BM_FeatureCacheLookupHit)->Arg(1024)->Arg(65536);

void BM_FeatureCacheInsert(benchmark::State& state) {
  Rng rng(12);
  FeatureCacheOptions copts;
  copts.capacity = 4096;  // exercises the eviction path
  FeatureCache cache(copts);
  SparseVector x = RandomVector(&rng, 8192, 64);
  uint32_t i = 0;
  for (auto _ : state) {
    cache.Insert(1, i++, FeatureCache::Entry{x, 1, 1000});
  }
}
BENCHMARK(BM_FeatureCacheInsert);

void BM_PipelineFingerprint(benchmark::State& state) {
  Task task = MakeTask(TaskKind::kWebCat, 200, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(task.pipeline.Fingerprint());
  }
}
BENCHMARK(BM_PipelineFingerprint);

// Console output plus the repo's machine-readable BENCH_micro.json (per-
// iteration real time in the wall_micros field) when ZOMBIE_BENCH_JSON_DIR
// is set.
class JsonExportReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonExportReporter(bench::BenchReporter* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      bench::BenchReporter::Entry e;
      e.name = run.benchmark_name();
      e.wall_micros = run.real_accumulated_time /
                      static_cast<double>(run.iterations) * 1e6;
      e.items = static_cast<double>(run.iterations);
      walls_[e.name] = e.wall_micros;
      out_->Add(std::move(e));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  /// Per-iteration wall time of a completed benchmark, or 0 if absent.
  double WallOf(const std::string& name) const {
    auto it = walls_.find(name);
    return it == walls_.end() ? 0.0 : it->second;
  }

 private:
  bench::BenchReporter* out_;
  std::map<std::string, double> walls_;
};

// Old-kernel / new-kernel wall ratios (> 1 means the new path is faster).
// Exported as "ratio.*" metrics in BENCH_micro.json; check_bench_regression
// surfaces them as the kernel-speedup table on the CI step summary.
void ExportKernelRatios(const JsonExportReporter& console,
                        bench::BenchReporter* reporter) {
  const std::pair<const char*, std::pair<const char*, const char*>> kPairs[] =
      {{"ratio.tokenize_100", {"BM_Tokenize/100", "BM_TokenizeViews/100"}},
       {"ratio.tokenize_400", {"BM_Tokenize/400", "BM_TokenizeViews/400"}},
       {"ratio.tokenize_1600", {"BM_Tokenize/1600", "BM_TokenizeViews/1600"}},
       {"ratio.vectorize_100", {"BM_Vectorize/100", "BM_VectorizeViews/100"}},
       {"ratio.vectorize_400", {"BM_Vectorize/400", "BM_VectorizeViews/400"}},
       {"ratio.vectorize_1600",
        {"BM_Vectorize/1600", "BM_VectorizeViews/1600"}}};
  for (const auto& [metric, pair] : kPairs) {
    const double old_wall = console.WallOf(pair.first);
    const double new_wall = console.WallOf(pair.second);
    if (old_wall > 0.0 && new_wall > 0.0) {
      reporter->AddMetric(metric, old_wall / new_wall);
    }
  }
}

}  // namespace
}  // namespace zombie

int main(int argc, char** argv) {
  zombie::SetLogLevel(zombie::LogLevel::kWarning);
  benchmark::Initialize(&argc, argv);
  zombie::bench::BenchReporter reporter("micro");
  zombie::JsonExportReporter console(&reporter);
  benchmark::RunSpecifiedBenchmarks(&console);
  zombie::ExportKernelRatios(console, &reporter);
  reporter.Finish();
  return 0;
}
