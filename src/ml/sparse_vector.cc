#include "ml/sparse_vector.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace zombie {

// The hot kernels (Dot, norms) live inline in sparse_vector.h — see the
// kernel note there. This TU keeps the cold paths: lookup, construction,
// remapping, formatting.

double SparseVectorView::Get(uint32_t index) const {
  const uint32_t* end = indices_ + size_;
  const uint32_t* it = std::lower_bound(indices_, end, index);
  if (it == end || *it != index) return 0.0;
  return values_[static_cast<size_t>(it - indices_)];
}

double SparseVectorView::CosineSimilarity(SparseVectorView other) const {
  const double na = L2Norm();
  const double nb = other.L2Norm();
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(other) / (na * nb);
}

bool SparseVectorView::operator==(SparseVectorView other) const {
  if (size_ != other.size_) return false;
  for (size_t i = 0; i < size_; ++i) {
    if (indices_[i] != other.indices_[i]) return false;
    if (values_[i] != other.values_[i]) return false;
  }
  return true;
}

size_t SparseVectorView::RemapInto(const uint32_t* old_to_new,
                                   size_t table_size, uint32_t* out_indices,
                                   double* out_values) const {
  // No FP arithmetic, only data movement. In place is safe: `out` never
  // passes `i`.
  size_t out = 0;
  for (size_t i = 0; i < size_; ++i) {
    const uint32_t idx = indices_[i];
    if (idx >= table_size) break;  // sorted: the rest are out of range too
    const uint32_t dense = old_to_new[idx];
    if (dense == kPrunedFeature) continue;
    out_indices[out] = dense;
    out_values[out] = values_[i];
    ++out;
  }
  return out;
}

std::string SparseVectorView::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < size_; ++i) {
    if (i) out += ", ";
    out += StrFormat("%u:%g", indices_[i], values_[i]);
  }
  out += "}";
  return out;
}

SparseVector SparseVector::FromPairs(
    std::vector<std::pair<uint32_t, double>> pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  SparseVector v;
  v.indices_.reserve(pairs.size());
  v.values_.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size();) {
    uint32_t idx = pairs[i].first;
    double sum = 0.0;
    while (i < pairs.size() && pairs[i].first == idx) {
      sum += pairs[i].second;
      ++i;
    }
    if (sum != 0.0) {
      v.indices_.push_back(idx);
      v.values_.push_back(sum);
    }
  }
  return v;
}

SparseVector SparseVector::FromView(SparseVectorView view) {
  SparseVector v;
  v.indices_.assign(view.indices_data(), view.indices_data() + view.num_nonzero());
  v.values_.assign(view.values_data(), view.values_data() + view.num_nonzero());
  return v;
}

void SparseVector::PushBack(uint32_t index, double value) {
  ZCHECK(indices_.empty() || index > indices_.back())
      << "PushBack indices must be strictly increasing";
  if (value == 0.0) return;
  indices_.push_back(index);
  values_.push_back(value);
}

void SparseVector::Scale(double factor) {
  for (double& v : values_) v *= factor;
}

void SparseVector::RemapThrough(const uint32_t* old_to_new,
                                size_t table_size) {
  const size_t kept = view().RemapInto(old_to_new, table_size,
                                       indices_.data(), values_.data());
  indices_.resize(kept);
  values_.resize(kept);
}

}  // namespace zombie
