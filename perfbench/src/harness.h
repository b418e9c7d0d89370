// Timing, output checking and result printing shared by every workload.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/status.h"

namespace perfbench {

/// Every workload runs over one generated WebCat corpus of this size.
inline constexpr size_t kDocs = 12000;

/// Category of the spans the benchmark itself records around public calls.
inline constexpr const char* kBenchCategory = "perfbench";

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
double Quantile(std::vector<double> values, double q);

/// FNV-1a 64-bit hash, printed as 16 hex digits.
std::string HashHex(const std::string& text);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Fingerprint hashes recorded for the default seed, read from lines of
/// "<workload> <op key> <hash>" ('#' starts a comment).
class Reference {
 public:
  [[nodiscard]] zombie::Status Load(const std::string& path);

  /// The recorded hash, or "" when the key has none.
  std::string Find(const std::string& workload, const std::string& key) const;

 private:
  std::map<std::string, std::string> hashes_;  // "workload key" -> hash
};

/// What one op returned, reduced to what the benchmark checks and reports.
struct OpOutput {
  /// Canonical rendering of every deterministic field of the op's result.
  std::string fingerprint;
  /// Items pulled (a deterministic count).
  uint64_t items = 0;
  /// Total virtual time of the op, in seconds.
  double virtual_s = 0.0;
  /// Final holdout quality the op reports.
  double quality = 0.0;
};

/// Times ops from outside the program and checks their outputs. An op
/// fails when it returns a non-OK Status, when its fingerprint differs from
/// an earlier op with the same key (a repeated trial seed, or the restart
/// pass of a cold pass), or when a reference is attached and its hash
/// differs from the recorded one. Ops run one at a time (closed loop).
class OpLog {
 public:
  /// `reference` may be null (no reference check); it must outlive the log.
  OpLog(std::string workload, const Reference* reference);

  /// Times `op` under a "core.run" span on `trace` (may be null) and
  /// records its wall time in the traced or untraced series, depending on
  /// whether `trace` is null. `output` renders what the op produced; it
  /// runs after the clock stops and only when `op` returned OK.
  void Run(const std::string& key, zombie::TraceRecorder* trace,
           const std::function<zombie::Status()>& op,
           const std::function<OpOutput()>& output);

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  const std::vector<double>& untraced_ms() const { return untraced_ms_; }
  const std::vector<double>& traced_ms() const { return traced_ms_; }

  /// Items pulled by, and wall seconds of, the untraced ops so far.
  uint64_t untraced_items() const { return untraced_items_; }
  double untraced_seconds() const { return untraced_seconds_; }

  /// Means over the distinct op keys seen, so they do not depend on how
  /// many passes fit in the run.
  double MeanVirtualSeconds() const;
  double MeanQuality() const;
  size_t distinct_keys() const { return seen_.size(); }

  /// "<workload> <key> <hash>" lines for every key seen, for reference.txt.
  std::string ReferenceLines() const;

 private:
  struct Seen {
    std::string fingerprint;
    double virtual_s = 0.0;
    double quality = 0.0;
  };

  void Fail(const std::string& key, const std::string& why);

  std::string workload_;
  const Reference* reference_;
  std::map<std::string, Seen> seen_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<double> untraced_ms_;
  std::vector<double> traced_ms_;
  uint64_t untraced_items_ = 0;
  double untraced_seconds_ = 0.0;
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the result line: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
