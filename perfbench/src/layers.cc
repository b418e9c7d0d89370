#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {
namespace {

using zombie::HistogramSnapshot;
using zombie::TraceEvent;

/// Runs on the prefetch workers, concurrently with the op: reported as
/// busy time, never as a child of the op's critical path.
constexpr const char* kPrefetchSpan = "prefetch.extract";

struct SpanSum {
  double total_us = 0.0;
  double self_us = 0.0;
  size_t count = 0;
};

/// Spans nested into trees. Same-thread nesting comes from the intervals;
/// a root span on another thread (the ExperimentDriver's worker) whose
/// interval lies inside an op span becomes that op's child.
struct SpanForest {
  /// Spans inside ops, keyed by their path from the op span
  /// ("core.run/driver.trial/engine.run").
  std::map<std::string, SpanSum> by_path;
  /// Every span, keyed by name.
  std::map<std::string, SpanSum> by_name;
  size_t ops = 0;
  double prefetch_busy_us = 0.0;
};

bool IsOp(const TraceEvent& e) {
  return e.name == "core.run" && e.category == kBenchCategory;
}

bool Contains(const TraceEvent& outer, const TraceEvent& inner) {
  return inner.ts_micros >= outer.ts_micros &&
         inner.ts_micros + inner.dur_micros <=
             outer.ts_micros + outer.dur_micros;
}

std::string NameOf(const TraceEvent& e) {
  // Driver trial spans are labelled per trial ("egreedy/kmeans32/.../s3").
  return e.category == "driver" ? "driver.trial" : e.name;
}

SpanForest BuildForest(const std::vector<TraceEvent>& events) {
  SpanForest forest;
  std::vector<size_t> order;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].name == kPrefetchSpan) {
      forest.prefetch_busy_us += static_cast<double>(events[i].dur_micros);
    } else {
      order.push_back(i);
    }
  }
  // Per thread, by start; an enclosing span sorts before what it encloses.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const TraceEvent& x = events[a];
    const TraceEvent& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_micros != y.ts_micros) return x.ts_micros < y.ts_micros;
    return x.dur_micros > y.dur_micros;
  });
  const size_t kNone = events.size();
  std::vector<size_t> parent(events.size(), kNone);
  std::vector<size_t> stack;
  for (size_t k = 0; k < order.size(); ++k) {
    const size_t i = order[k];
    if (k > 0 && events[order[k - 1]].tid != events[i].tid) stack.clear();
    while (!stack.empty() && !Contains(events[stack.back()], events[i])) {
      stack.pop_back();
    }
    if (!stack.empty()) parent[i] = stack.back();
    stack.push_back(i);
  }
  std::vector<size_t> ops;
  for (size_t i : order) {
    if (IsOp(events[i])) ops.push_back(i);
  }
  std::sort(ops.begin(), ops.end(), [&](size_t a, size_t b) {
    return events[a].ts_micros < events[b].ts_micros;
  });
  forest.ops = ops.size();
  for (size_t i : order) {
    if (parent[i] != kNone || IsOp(events[i])) continue;
    // The last op starting at or before this span is the only candidate.
    auto it = std::upper_bound(
        ops.begin(), ops.end(), events[i].ts_micros,
        [&](int64_t ts, size_t op) { return ts < events[op].ts_micros; });
    if (it != ops.begin() && Contains(events[*(it - 1)], events[i])) {
      parent[i] = *(it - 1);
    }
  }

  std::vector<double> child_us(events.size(), 0.0);
  for (size_t i : order) {
    if (parent[i] != kNone) {
      child_us[parent[i]] += static_cast<double>(events[i].dur_micros);
    }
  }
  for (size_t i : order) {
    const double dur = static_cast<double>(events[i].dur_micros);
    const double self = dur - child_us[i];
    SpanSum& n = forest.by_name[NameOf(events[i])];
    n.total_us += dur;
    n.self_us += self;
    ++n.count;
    // Path from the op span down; spans outside every op have none.
    std::string path = NameOf(events[i]);
    size_t p = i;
    while (!IsOp(events[p]) && parent[p] != kNone) {
      p = parent[p];
      path = NameOf(events[p]) + "/" + path;
    }
    if (!IsOp(events[p])) continue;
    SpanSum& s = forest.by_path[path];
    s.total_us += dur;
    s.self_us += self;
    ++s.count;
  }
  return forest;
}

HistogramSnapshot SumHistograms(const zombie::MetricsSnapshot& m,
                                const std::string& name, bool prefix) {
  HistogramSnapshot sum;
  for (const auto& [key, h] : m.histograms) {
    const bool match = prefix ? key.rfind(name, 0) == 0 : key == name;
    if (!match) continue;
    sum.count += h.count;
    sum.sum += h.sum;
  }
  return sum;
}

double CounterValue(const zombie::MetricsSnapshot& m, const std::string& name) {
  for (const auto& [key, value] : m.counters) {
    if (key == name) return static_cast<double>(value);
  }
  return 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean duration of the spans named `name`, in ms.
double MeanSpanMs(const SpanForest& f, const std::string& name) {
  auto it = f.by_name.find(name);
  if (it == f.by_name.end()) return 0.0;
  return Ratio(it->second.total_us, static_cast<double>(it->second.count)) /
         1000.0;
}

/// Total time of the in-op spans whose path ends in `name`, in ms.
double InOpTotalMs(const SpanForest& f, const std::string& name) {
  double us = 0.0;
  for (const auto& [path, s] : f.by_path) {
    const size_t slash = path.rfind('/');
    if (path.substr(slash == std::string::npos ? 0 : slash + 1) == name) {
      us += s.total_us;
    }
  }
  return us / 1000.0;
}

/// The program's own per-call timers inside engine.run, per op.
struct EngineSplit {
  HistogramSnapshot extract;
  HistogramSnapshot holdout_eval;
  HistogramSnapshot update;
  HistogramSnapshot select;
};

EngineSplit SplitOf(const zombie::MetricsSnapshot& m) {
  EngineSplit s;
  s.extract = SumHistograms(m, "featureeng.extract_us", false);
  s.holdout_eval = SumHistograms(m, "engine.holdout_eval_us", false);
  s.update = SumHistograms(m, "learner.update_us.", true);
  s.select = SumHistograms(m, "bandit.select_us.", true);
  return s;
}

double TraceOverhead(const TracedRun& run) {
  return Ratio(Quantile(run.traced_ms, 0.5), Quantile(run.untraced_ms, 0.5));
}

}  // namespace

std::vector<Metric> LayerMetrics(const TracedRun& run) {
  const SpanForest f = BuildForest(run.events);
  const double ops = static_cast<double>(f.ops);
  const zombie::MetricsSnapshot& m = run.metrics;
  const EngineSplit split = SplitOf(m);
  const HistogramSnapshot wait =
      SumHistograms(m, "threadpool.queue_wait_us", false);
  const HistogramSnapshot task = SumHistograms(m, "threadpool.task_us", false);
  const double cache_hits = CounterValue(m, "featureeng.cache.hits");
  const double cache_misses = CounterValue(m, "featureeng.cache.misses");
  const Tally& t = run.tally;
  auto per_op_ms = [&](double us) { return Ratio(us, ops) / 1000.0; };
  auto per_op = [&](double n) { return Ratio(n, ops); };
  const auto op_it = f.by_path.find("core.run");
  const SpanSum op = op_it == f.by_path.end() ? SpanSum{} : op_it->second;
  return {
      {"data.load_ms", MeanSpanMs(f, "data.load"), "ms"},
      {"index.build_ms", MeanSpanMs(f, "index.build"), "ms"},
      {"index.groups", static_cast<double>(t.index_groups), "count"},
      {"featureeng.extract_ms", per_op_ms(split.extract.sum), "ms"},
      {"featureeng.extracts", per_op(static_cast<double>(split.extract.count)),
       "count"},
      {"featureeng.cache_hit_rate",
       Ratio(cache_hits, cache_hits + cache_misses), "ratio"},
      {"featureeng.store_hit_rate",
       Ratio(static_cast<double>(t.store_hits),
             static_cast<double>(t.store_hits + t.store_misses)),
       "ratio"},
      {"featureeng.store_appends", per_op(static_cast<double>(t.store_appends)),
       "count"},
      {"featureeng.store_open_ms", MeanSpanMs(f, "featureeng.store_open"),
       "ms"},
      {"featureeng.prefetch_useful_ratio",
       Ratio(CounterValue(m, "prefetch.useful"),
             CounterValue(m, "prefetch.issued")),
       "ratio"},
      {"ml.holdout_eval_ms", per_op_ms(split.holdout_eval.sum), "ms"},
      {"ml.evals", per_op(static_cast<double>(split.holdout_eval.count)),
       "count"},
      {"ml.update_ms", per_op_ms(split.update.sum), "ms"},
      {"bandit.select_ms", per_op_ms(split.select.sum), "ms"},
      {"bandit.selects", per_op(static_cast<double>(split.select.count)),
       "count"},
      {"core.run_ms", per_op_ms(op.total_us), "ms"},
      {"core.holdout_setup_ms", Ratio(InOpTotalMs(f, "engine.holdout"), ops),
       "ms"},
      {"core.pulls", per_op(CounterValue(m, "engine.pulls")), "count"},
      {"core.ingest_docs", per_op(CounterValue(m, "ingest.docs")), "count"},
      {"core.ingest_windows", per_op(CounterValue(m, "ingest.windows")),
       "count"},
      {"util.pool_wait_ms", per_op_ms(wait.sum), "ms"},
      {"util.pool_task_ms", per_op_ms(task.sum), "ms"},
      {"core.unattributed_ms", per_op_ms(op.self_us), "ms"},
      {"obs.trace_overhead", TraceOverhead(run), "ratio"},
  };
}

void PrintLayerReport(const std::string& workload, const TracedRun& run) {
  const SpanForest f = BuildForest(run.events);
  const double ops = static_cast<double>(f.ops);
  auto ms_per_op = [&](double us) { return Ratio(us, ops) / 1000.0; };
  const auto op_it = f.by_path.find("core.run");
  const double op_us = op_it == f.by_path.end() ? 0.0 : op_it->second.total_us;

  std::printf("layer report [%s]: %zu traced ops\n", workload.c_str(), f.ops);
  std::printf("  %-46s %12s %12s %8s\n", "span tree (per op)", "total ms",
              "self ms", "self %");
  for (const auto& [path, s] : f.by_path) {
    const size_t depth =
        static_cast<size_t>(std::count(path.begin(), path.end(), '/'));
    const size_t slash = path.rfind('/');
    const std::string name =
        std::string(2 * depth, ' ') +
        (slash == std::string::npos ? path : path.substr(slash + 1));
    std::printf("  %-46s %12.3f %12.3f %7.1f%%\n", name.c_str(),
                ms_per_op(s.total_us), ms_per_op(s.self_us),
                100.0 * Ratio(s.self_us, op_us));
  }
  const double unattributed_us =
      op_it == f.by_path.end() ? 0.0 : op_it->second.self_us;
  std::printf("  core.unattributed: %.3f ms/op = %.1f%% of op wall "
              "(op span minus the spans directly under it)\n",
              ms_per_op(unattributed_us),
              100.0 * Ratio(unattributed_us, op_us));

  const EngineSplit split = SplitOf(run.metrics);
  const double engine_ms = Ratio(InOpTotalMs(f, "engine.run"), ops);
  std::printf("  engine.run %.3f ms/op, split by the program's own timers:\n",
              engine_ms);
  double timed_ms = 0.0;
  const std::pair<const char*, const HistogramSnapshot*> parts[] = {
      {"featureeng.extract", &split.extract},
      {"ml.holdout_eval", &split.holdout_eval},
      {"ml.update", &split.update},
      {"bandit.select", &split.select},
  };
  for (const auto& [name, h] : parts) {
    const double ms = ms_per_op(h->sum);
    timed_ms += ms;
    std::printf("    %-24s %10.3f ms/op %8.1f%%  (%.1f calls/op)\n", name, ms,
                100.0 * Ratio(ms, engine_ms), Ratio(h->count, ops));
  }
  std::printf("    %-24s %10.3f ms/op %8.1f%%\n", "engine other",
              engine_ms - timed_ms, 100.0 * Ratio(engine_ms - timed_ms,
                                                  engine_ms));
  if (f.prefetch_busy_us > 0.0) {
    std::printf("  off the critical path: %s busy %.3f ms/op on the prefetch "
                "workers\n",
                kPrefetchSpan, ms_per_op(f.prefetch_busy_us));
  }
  std::printf("  set-up spans (mean per call):");
  for (const char* name : {"data.load", "featureeng.pipeline", "index.build",
                           "featureeng.store_open"}) {
    auto it = f.by_name.find(name);
    if (it == f.by_name.end()) continue;
    std::printf(" %s %.3f ms (x%zu)", name, MeanSpanMs(f, name),
                it->second.count);
  }
  std::printf("\n");
  std::printf("  obs.trace_overhead: traced / untraced op wall p50 = "
              "%.3f / %.3f ms = %.4f (%zu / %zu ops)\n",
              Quantile(run.traced_ms, 0.5), Quantile(run.untraced_ms, 0.5),
              TraceOverhead(run), run.traced_ms.size(),
              run.untraced_ms.size());
  const Tally& t = run.tally;
  const double prefetch_issued = CounterValue(run.metrics, "prefetch.issued");
  if (prefetch_issued > 0.0 || t.store_hits + t.store_misses > 0) {
    std::printf("  bases: prefetch useful %.0f of %.0f issued; store hits "
                "%llu of %llu lookups, %llu appends\n",
                CounterValue(run.metrics, "prefetch.useful"), prefetch_issued,
                static_cast<unsigned long long>(t.store_hits),
                static_cast<unsigned long long>(t.store_hits + t.store_misses),
                static_cast<unsigned long long>(t.store_appends));
  }
}

}  // namespace perfbench
