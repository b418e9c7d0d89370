#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::string HashHex(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

zombie::Status Reference::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return zombie::Status::IOError("cannot read reference " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::string key;
    std::string hash;
    if (!(fields >> workload >> key >> hash)) {
      return zombie::Status::InvalidArgument("bad reference line: " + line);
    }
    hashes_[workload + " " + key] = hash;
  }
  return zombie::Status::OK();
}

std::string Reference::Find(const std::string& workload,
                            const std::string& key) const {
  auto it = hashes_.find(workload + " " + key);
  return it == hashes_.end() ? std::string() : it->second;
}

OpLog::OpLog(std::string workload, const Reference* reference)
    : workload_(std::move(workload)), reference_(reference) {}

void OpLog::Fail(const std::string& key, const std::string& why) {
  ++failed_;
  std::fprintf(stderr, "perfbench: %s op %s failed: %s\n", workload_.c_str(),
               key.c_str(), why.c_str());
}

void OpLog::Run(const std::string& key, zombie::TraceRecorder* trace,
                const std::function<zombie::Status()>& op,
                const std::function<OpOutput()>& output) {
  ++attempted_;
  const auto start = std::chrono::steady_clock::now();
  zombie::Status status = [&] {
    zombie::TraceSpan span(trace, "core.run", kBenchCategory);
    return op();
  }();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  if (!status.ok()) {
    Fail(key, status.ToString());
    return;
  }
  const OpOutput o = output();
  if (trace != nullptr) {
    traced_ms_.push_back(wall_ms);
  } else {
    untraced_ms_.push_back(wall_ms);
    untraced_items_ += o.items;
    untraced_seconds_ += wall_ms / 1000.0;
  }
  auto [it, first] = seen_.try_emplace(key, Seen{o.fingerprint, o.virtual_s,
                                                 o.quality});
  if (!first && it->second.fingerprint != o.fingerprint) {
    Fail(key, "output differs from an earlier op with the same key");
    return;
  }
  if (first && reference_ != nullptr) {
    const std::string want = reference_->Find(workload_, key);
    const std::string got = HashHex(o.fingerprint);
    if (want != got) {
      Fail(key, "fingerprint " + got + " differs from reference " +
                    (want.empty() ? std::string("(none)") : want));
    }
  }
}

double OpLog::MeanVirtualSeconds() const {
  double sum = 0.0;
  for (const auto& [key, seen] : seen_) sum += seen.virtual_s;
  return seen_.empty() ? 0.0 : sum / static_cast<double>(seen_.size());
}

double OpLog::MeanQuality() const {
  double sum = 0.0;
  for (const auto& [key, seen] : seen_) sum += seen.quality;
  return seen_.empty() ? 0.0 : sum / static_cast<double>(seen_.size());
}

std::string OpLog::ReferenceLines() const {
  std::string lines;
  for (const auto& [key, seen] : seen_) {
    lines += workload_ + " " + key + " " + HashHex(seen.fingerprint) + "\n";
  }
  return lines;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // %.17g keeps every digit; JSON has no NaN/Inf, so those print as 0.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
