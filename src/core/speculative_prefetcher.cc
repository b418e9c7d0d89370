#include "core/speculative_prefetcher.h"

#include "util/logging.h"

namespace zombie {

SpeculativePrefetcher::SpeculativePrefetcher(ExtractionService* service,
                                             const GroupedCorpus* grouped,
                                             TraceRecorder* trace)
    : service_(service), grouped_(grouped), trace_(trace) {
  ZCHECK(service_ != nullptr);
  ZCHECK(grouped_ != nullptr);
}

void SpeculativePrefetcher::SpeculateBeforeEvaluation(
    const BanditPolicy& policy, const ArmStats& stats) {
  if (!service_->prefetch_enabled()) return;
  TraceSpan span(trace_, "engine.speculate", "prefetch");
  policy.RankArms(stats, service_->prefetch_options().max_arms,
                  &ranked_arms_);
  candidates_.clear();
  for (size_t arm : ranked_arms_) {
    grouped_->PeekUnprocessed(arm, kPrefetchItemsPerArm, &peek_buffer_);
    candidates_.insert(candidates_.end(), peek_buffer_.begin(),
                       peek_buffer_.end());
  }
  if (!candidates_.empty()) {
    service_->EnqueuePrefetch(grouped_->corpus(), candidates_);
  }
}

}  // namespace zombie
