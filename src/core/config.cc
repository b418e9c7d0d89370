#include "core/config.h"

namespace zombie {

Status EngineOptions::Validate() const {
  if (eval_every == 0) {
    return Status::InvalidArgument("eval_every must be positive");
  }
  if (holdout_size == 0) {
    return Status::InvalidArgument("holdout_size must be positive");
  }
  if (stop.max_items == 0) {
    return Status::InvalidArgument("max_items must be positive");
  }
  if (holdout_eval_threads == 0) {
    return Status::InvalidArgument("holdout_eval_threads must be positive");
  }
  if (Status s = pruning.Validate(); !s.ok()) return s;
  return Status::OK();
}

}  // namespace zombie
