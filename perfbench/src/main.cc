// perfbench — end-to-end wall-clock benchmark (see ../README.md).
//
//   perfbench generate --seed=N --out=corpus.zmbc
//   perfbench run --workload=W --seed=N --seconds=S --trace=0|1
//                 --corpus=corpus.zmbc --workdir=DIR
//                 [--setup-corpora=a.zmbc,b.zmbc,...]
//                 [--reference=reference.txt] [--print-reference]
//
// `run` sets the workload up several times on each of several corpora
// (setup_s = the mean over corpora of each corpus's median set-up), then
// runs passes over the workload's fixed trial list until --seconds have
// passed.
// --trace=0 passes run with observability off and the result carries the
// end-to-end metrics; --trace=1 alternates untraced and traced passes and
// the result carries the per-layer split. The last stdout line is the JSON
// result. With --reference, every op's output hash must match the one
// recorded there (the file holds the default seed's hashes).

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "ml/simd/simd_level.h"
#include "obs/obs.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up runs in rounds, one set-up per corpus each, at least kMinRounds
// times and until kMinSetupSeconds have been spent in it, so a cheap
// set-up gets a median of many samples.
constexpr size_t kMinRounds = 2;
constexpr size_t kMaxRounds = 25;
constexpr double kMinSetupSeconds = 2.0;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// --key=value arguments; a bare --key reads as "1".
std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags["?"] = arg;
      continue;
    }
    const size_t eq = arg.find('=');
    flags[arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2)] =
        eq == std::string::npos ? "1" : arg.substr(eq + 1);
  }
  return flags;
}

std::string Get(const std::map<std::string, std::string>& flags,
                const std::string& key) {
  auto it = flags.find(key);
  return it == flags.end() ? std::string() : it->second;
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    if (end > begin) parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench generate --seed=N --out=PATH\n"
               "       perfbench run --workload=W --seed=N --seconds=S "
               "--trace=0|1 --corpus=PATH --workdir=DIR "
               "[--setup-corpora=PATH,...] [--reference=PATH] "
               "[--print-reference]\n");
  return 2;
}

int Generate(const std::map<std::string, std::string>& flags) {
  const std::string out = Get(flags, "out");
  if (out.empty() || Get(flags, "seed").empty()) return Usage();
  zombie::Status st =
      GenerateCorpus(std::strtoull(Get(flags, "seed").c_str(), nullptr, 10),
                     out);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

void PrintHost() {
  std::printf("host: nproc=%ld simd=%s build=%s docs=%zu\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              zombie::simd::SimdLevelName(zombie::simd::ActiveSimdLevel()),
              PERFBENCH_BUILD_TYPE, kDocs);
}

int Run(const std::map<std::string, std::string>& flags) {
  const std::string workload = Get(flags, "workload");
  const std::string corpus = Get(flags, "corpus");
  const double seconds = std::atof(Get(flags, "seconds").c_str());
  const bool traced = Get(flags, "trace") == "1";
  if (corpus.empty() || Get(flags, "workdir").empty() || seconds <= 0.0) {
    return Usage();
  }
  if (MakeWorkload(workload, corpus, Get(flags, "workdir")) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  Reference reference;
  const bool check_reference = !Get(flags, "reference").empty();
  if (check_reference) {
    zombie::Status st = reference.Load(Get(flags, "reference"));
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Observability stays off (obs = nullptr) except in the traced passes.
  std::unique_ptr<zombie::ObsContext> obs;
  if (traced) {
    zombie::ObsOptions opts;
    opts.decision_log = false;
    obs = std::make_unique<zombie::ObsContext>(opts);
  }
  zombie::TraceRecorder* trace = obs != nullptr ? obs->trace() : nullptr;

  // Set-up time depends on the corpus (the k-means build runs until it
  // converges), so every round sets up once on each extra set-up corpus and
  // then on the op corpus, which the passes use. setup_s is the mean over
  // corpora of each corpus's median. A previous instance is released
  // outside the clock, before the next one loads its corpus.
  std::vector<std::string> setup_corpora =
      SplitCommas(Get(flags, "setup-corpora"));
  setup_corpora.push_back(corpus);
  std::unique_ptr<Workload> w;
  std::vector<std::vector<double>> setup_s(setup_corpora.size());
  double setup_total_s = 0.0;
  size_t rounds = 0;
  while (rounds < kMinRounds ||
         (setup_total_s < kMinSetupSeconds && rounds < kMaxRounds)) {
    for (size_t c = 0; c < setup_corpora.size(); ++c) {
      w.reset();
      w = MakeWorkload(workload, setup_corpora[c], Get(flags, "workdir"));
      const Clock::time_point start = Clock::now();
      zombie::Status st = w->Setup(trace);
      setup_s[c].push_back(SecondsSince(start));
      setup_total_s += setup_s[c].back();
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: set-up failed on %s: %s\n",
                     setup_corpora[c].c_str(), st.ToString().c_str());
        return 1;
      }
    }
    ++rounds;
  }
  double setup_mean_s = 0.0;
  for (const std::vector<double>& samples : setup_s) {
    setup_mean_s += Quantile(samples, 0.5);
  }
  setup_mean_s /= static_cast<double>(setup_s.size());

  OpLog log(workload, check_reference ? &reference : nullptr);
  const Clock::time_point start = Clock::now();
  size_t passes = 0;
  std::vector<double> pass_items_per_s;  // untraced items / op wall, per pass
  do {
    const uint64_t items_before = log.untraced_items();
    const double seconds_before = log.untraced_seconds();
    // Traced runs alternate which side of a pair goes first (untraced,
    // traced, traced, untraced, ...), so warm-up favours neither side.
    zombie::Status st = zombie::Status::OK();
    if (traced && passes % 2 == 1) st = w->RunPass(obs.get(), &log);
    if (st.ok()) st = w->RunPass(nullptr, &log);
    if (st.ok() && traced && passes % 2 == 0) st = w->RunPass(obs.get(), &log);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: pass failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    ++passes;
    const double pass_seconds = log.untraced_seconds() - seconds_before;
    if (pass_seconds > 0.0) {
      pass_items_per_s.push_back(
          static_cast<double>(log.untraced_items() - items_before) /
          pass_seconds);
    }
  } while (SecondsSince(start) < seconds);
  const double measured_s = SecondsSince(start);

  if (!Get(flags, "print-reference").empty()) {
    std::fprintf(stderr, "%s", log.ReferenceLines().c_str());
  }
  const std::vector<double>& ops = log.untraced_ms();
  std::printf("workload %s: %zu passes in %.1f s, %zu untraced ops, "
              "%zu traced ops\n",
              workload.c_str(), passes, measured_s, ops.size(),
              log.traced_ms().size());
  std::printf("setup_s: %.4f s, mean over %zu corpora of the median of %zu "
              "set-ups; per corpus:",
              setup_mean_s, setup_corpora.size(), rounds);
  for (const std::vector<double>& samples : setup_s) {
    std::printf(" %.4f", Quantile(samples, 0.5));
  }
  std::printf("\n");
  // A percentile is reported only with at least ten samples beyond it.
  std::printf("op wall: min %.3f, p50 %.3f, max %.3f ms over %zu ops",
              Quantile(ops, 0.0), Quantile(ops, 0.5), Quantile(ops, 1.0),
              ops.size());
  if (ops.size() >= 100) {
    std::printf(", p90 %.3f ms (%zu beyond)\n", Quantile(ops, 0.9),
                ops.size() - (ops.size() * 9 + 9) / 10);
  } else {
    std::printf(", p90 not reported (needs >= 100 ops):");
    for (double ms : ops) std::printf(" %.1f", ms);
    std::printf("\n");
  }
  std::printf("items_per_s: median %.1f over %zu passes\n",
              Quantile(pass_items_per_s, 0.5), pass_items_per_s.size());
  std::printf("fail_share: %zu / %zu = %.4f\n", log.failed(), log.attempted(),
              static_cast<double>(log.failed()) /
                  static_cast<double>(log.attempted()));
  // Deterministic for a seed, so checked through the fingerprints rather
  // than bounded as timings.
  std::printf("virtual_s: %.6f s, quality: %.6f (means over %zu distinct "
              "ops)\n",
              log.MeanVirtualSeconds(), log.MeanQuality(),
              log.distinct_keys());
  PrintHost();

  std::vector<Metric> metrics;
  if (traced) {
    TracedRun run;
    run.events = trace->Events();
    run.metrics = obs->metrics()->Snapshot();
    run.tally = w->tally();
    run.traced_ms = log.traced_ms();
    run.untraced_ms = log.untraced_ms();
    PrintLayerReport(workload, run);
    metrics = LayerMetrics(run);
  } else {
    metrics = {
        {"setup_s", setup_mean_s, "s"},
        {"items_per_s", Quantile(pass_items_per_s, 0.5), "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
  }
  w.reset();  // removes the workload's scratch files before the result
  PrintResult(log.failed() == 0, log.attempted(), log.failed(), metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) return perfbench::Usage();
  const std::string cmd = argv[1];
  const auto flags = perfbench::ParseFlags(argc, argv);
  if (flags.count("?") != 0) return perfbench::Usage();
  if (cmd == "generate") return perfbench::Generate(flags);
  if (cmd == "run") return perfbench::Run(flags);
  return perfbench::Usage();
}
