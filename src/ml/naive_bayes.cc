#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace zombie {

NaiveBayesLearner::NaiveBayesLearner(double alpha) : alpha_(alpha) {
  ZCHECK_GT(alpha, 0.0);
}

void NaiveBayesLearner::Update(SparseVectorView x, int32_t y) {
  ZCHECK(y == 0 || y == 1) << "binary labels required, got " << y;
  ++num_updates_;
  class_count_[y] += 1.0;
  dimension_ = std::max(dimension_, x.dimension());
  auto& counts = token_count_[y];
  if (counts.size() < x.dimension()) counts.resize(x.dimension(), 0.0);
  for (size_t i = 0; i < x.num_nonzero(); ++i) {
    double v = x.value_at(i);
    if (v <= 0.0) continue;  // multinomial NB: counts only
    counts[x.index_at(i)] += v;
    token_total_[y] += v;
  }
}

double NaiveBayesLearner::LogOdds(SparseVectorView x) const {
  // Uninformed model: even log-odds.
  if (class_count_[0] + class_count_[1] == 0.0) return 0.0;

  // Smoothed class prior log-ratio.
  double prior1 = (class_count_[1] + 1.0) /
                  (class_count_[0] + class_count_[1] + 2.0);
  double log_odds = std::log(prior1 / (1.0 - prior1));

  double v_dim = static_cast<double>(std::max<size_t>(dimension_, 1));
  double denom0 = token_total_[0] + alpha_ * v_dim;
  double denom1 = token_total_[1] + alpha_ * v_dim;
  for (size_t i = 0; i < x.num_nonzero(); ++i) {
    double v = x.value_at(i);
    if (v <= 0.0) continue;
    uint32_t idx = x.index_at(i);
    double c0 = idx < token_count_[0].size() ? token_count_[0][idx] : 0.0;
    double c1 = idx < token_count_[1].size() ? token_count_[1][idx] : 0.0;
    double lp1 = std::log((c1 + alpha_) / denom1);
    double lp0 = std::log((c0 + alpha_) / denom0);
    log_odds += v * (lp1 - lp0);
  }
  return log_odds;
}

double NaiveBayesLearner::Score(SparseVectorView x) const {
  return LogOdds(x);
}

void NaiveBayesLearner::Reset() {
  num_updates_ = 0;
  class_count_[0] = class_count_[1] = 0.0;
  token_total_[0] = token_total_[1] = 0.0;
  token_count_[0].clear();
  token_count_[1].clear();
  dimension_ = 0;
}

std::unique_ptr<Learner> NaiveBayesLearner::Clone() const {
  return std::make_unique<NaiveBayesLearner>(alpha_);
}

bool NaiveBayesLearner::ExportWeightMagnitudes(
    std::vector<double>* out) const {
  // Per unit of feature value, feature f moves LogOdds by (lp1 - lp0); its
  // magnitude is the pruning signal. Never-seen features get the nonzero
  // background |log(denom0/denom1)| — harmless, since the pruner divides by
  // activation count and gates on a minimum-activation floor.
  const size_t dim = std::max(token_count_[0].size(), token_count_[1].size());
  out->assign(dim, 0.0);
  const double v_dim = static_cast<double>(std::max<size_t>(dimension_, 1));
  const double denom0 = token_total_[0] + alpha_ * v_dim;
  const double denom1 = token_total_[1] + alpha_ * v_dim;
  for (size_t f = 0; f < dim; ++f) {
    const double c0 = f < token_count_[0].size() ? token_count_[0][f] : 0.0;
    const double c1 = f < token_count_[1].size() ? token_count_[1][f] : 0.0;
    (*out)[f] = std::abs(std::log((c1 + alpha_) / denom1) -
                         std::log((c0 + alpha_) / denom0));
  }
  return true;
}

bool NaiveBayesLearner::CompactFeatures(
    const std::vector<uint32_t>& old_to_new, uint32_t new_dimension) {
  // dimension_ and token_total_ deliberately keep their frozen full-space
  // values: the smoothing denominators must not move, so that scoring a
  // compacted vector stays bit-identical to scoring the original vector
  // with the pruned features zeroed out (the contract in learner.h).
  CompactDenseState(old_to_new, new_dimension, &token_count_[0]);
  CompactDenseState(old_to_new, new_dimension, &token_count_[1]);
  return true;
}

}  // namespace zombie
