// Tests for the scalar sparse kernels (ml/simd/sparse_kernels_scalar.h) as
// reached through SparseVectorView / SparseVector. The run-skipping Dot must
// be *bit-identical* to a classic three-way merge — same FP additions, same
// operands, same order — on adversarial index patterns and on seeded random
// rows across nnz/overlap regimes; Dot(dense) must equal a bounds-checked
// loop; and the pruning remap must emit exactly the kept sequence, in place
// and out of place.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "ml/sparse_vector.h"
#include "util/random.h"
#include "util/string_util.h"

namespace zombie {
namespace {

// Raw result bits: EXPECT_EQ on these is exact bit equality, which is the
// contract (EXPECT_DOUBLE_EQ would tolerate ULP drift and also treat
// -0.0 == +0.0).
uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Sparse operand as parallel raw arrays, buildable from arbitrary sorted
// index sets (including UINT32_MAX, which SparseVector supports too).
struct Row {
  std::vector<uint32_t> idx;
  std::vector<double> val;

  size_t n() const { return idx.size(); }
  SparseVectorView view() const {
    return SparseVectorView(idx.data(), val.data(), idx.size());
  }
};

Row MakeRow(std::vector<uint32_t> indices, Rng* rng) {
  Row r;
  r.idx = std::move(indices);
  r.val.reserve(r.idx.size());
  for (size_t i = 0; i < r.idx.size(); ++i) {
    // Mix magnitudes and signs so accumulation-order bugs actually move
    // result bits (uniform same-scale values can round identically under
    // benign reorderings and mask a violation).
    r.val.push_back(rng->NextGaussian() * (1.0 + 1e6 * rng->NextDouble()));
  }
  return r;
}

// Random strictly-increasing indices: `n` draws without replacement from
// [lo, hi], sorted.
std::vector<uint32_t> RandomIndices(size_t n, uint32_t lo, uint32_t hi,
                                    Rng* rng) {
  std::vector<uint32_t> out;
  out.reserve(n);
  uint64_t span = static_cast<uint64_t>(hi) - lo + 1;
  while (out.size() < n) {
    out.push_back(lo + static_cast<uint32_t>(rng->NextBelow(span)));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

// The classic three-way merge the run-skipping kernel replaced: the FP
// order every sparse·sparse dot must reproduce.
double ThreeWayMergeDot(const Row& a, const Row& b) {
  double sum = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.n() && j < b.n()) {
    if (a.idx[i] == b.idx[j]) {
      sum += a.val[i] * b.val[j];
      ++i;
      ++j;
    } else if (a.idx[i] < b.idx[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return sum;
}

void ExpectDotMatchesMerge(const Row& a, const Row& b,
                           const std::string& label) {
  SCOPED_TRACE(label);
  const uint64_t want = Bits(ThreeWayMergeDot(a, b));
  EXPECT_EQ(Bits(a.view().Dot(b.view())), want);
}

// --- Dot(sparse): adversarial fixed patterns --------------------------------

TEST(SparseDotTest, EmptyAndSingleEntry) {
  Rng rng(1);
  const Row empty;
  const Row one = MakeRow({42}, &rng);
  ExpectDotMatchesMerge(empty, empty, "empty/empty");
  ExpectDotMatchesMerge(one, empty, "one/empty");
  ExpectDotMatchesMerge(empty, one, "empty/one");
  ExpectDotMatchesMerge(one, one, "one/one");
}

TEST(SparseDotTest, SingleRunDisjointRanges) {
  // All of a's indices strictly below all of b's: one maximal mismatch run
  // each way, no matches.
  Rng rng(2);
  const Row a = MakeRow(RandomIndices(100, 0, 999, &rng), &rng);
  const Row b = MakeRow(RandomIndices(100, 1000, 1999, &rng), &rng);
  ExpectDotMatchesMerge(a, b, "disjoint low/high");
  ExpectDotMatchesMerge(b, a, "disjoint high/low");
}

TEST(SparseDotTest, DenseOverlapIdenticalIndexSets) {
  // Every index matches: the pure match path, zero-length runs between
  // matches.
  Rng rng(3);
  std::vector<uint32_t> shared = RandomIndices(257, 0, 4095, &rng);
  const Row a = MakeRow(shared, &rng);
  const Row b = MakeRow(shared, &rng);
  ExpectDotMatchesMerge(a, b, "identical index sets");
  ExpectDotMatchesMerge(a, a, "self");
}

TEST(SparseDotTest, InterleavedAlternatingIndices) {
  // a gets evens, b gets odds: maximal alternation, run length 1
  // throughout.
  Rng rng(4);
  std::vector<uint32_t> evens;
  std::vector<uint32_t> odds;
  for (uint32_t i = 0; i < 300; ++i) {
    (i % 2 == 0 ? evens : odds).push_back(i);
  }
  const Row a = MakeRow(std::move(evens), &rng);
  const Row b = MakeRow(std::move(odds), &rng);
  ExpectDotMatchesMerge(a, b, "alternating");
}

TEST(SparseDotTest, Uint32MaxAdjacentIndices) {
  // Indices straddling both the signed-compare boundary (2^31) and the top
  // of the index space.
  Rng rng(5);
  const Row a = MakeRow({0x7ffffffdu, 0x7ffffffeu, 0x7fffffffu, 0x80000000u,
                         0x80000001u, 0xfffffff0u, UINT32_MAX - 1, UINT32_MAX},
                        &rng);
  const Row b = MakeRow(
      {0u, 5u, 0x7fffffffu, 0x80000000u, 0xfffffff0u, UINT32_MAX}, &rng);
  ExpectDotMatchesMerge(a, b, "uint32-max adjacent");
  const Row c = MakeRow(RandomIndices(200, 0x7fffff00u, 0x800000ffu, &rng),
                        &rng);
  const Row d = MakeRow(RandomIndices(200, 0x7fffff80u, 0x8000017fu, &rng),
                        &rng);
  ExpectDotMatchesMerge(c, d, "boundary-straddling runs");
  const Row e = MakeRow(RandomIndices(64, UINT32_MAX - 255, UINT32_MAX, &rng),
                        &rng);
  ExpectDotMatchesMerge(e, e, "top-of-range self");
  ExpectDotMatchesMerge(a, e, "high vs top-of-range");
}

// --- Dot(sparse): seeded randomized regimes ---------------------------------

TEST(SparseDotTest, FuzzAcrossRegimes) {
  // (nnz_a, nnz_b, index range) regimes: tiny rows, unbalanced sides (one
  // long scan), near-dense overlap, and sparse production-like rows.
  struct Regime {
    size_t na;
    size_t nb;
    uint32_t hi;
  };
  const Regime regimes[] = {
      {1, 1, 64},       {3, 5, 64},        {7, 9, 128},     {8, 8, 64},
      {15, 17, 256},    {16, 16, 128},     {31, 33, 512},   {100, 3, 4096},
      {3, 100, 4096},   {128, 128, 8192},  {128, 128, 256}, {500, 500, 600},
      {512, 64, 65536}, {64, 512, 65536},
  };
  Rng rng(20260808);
  for (const Regime& regime : regimes) {
    for (int rep = 0; rep < 12; ++rep) {
      const Row a =
          MakeRow(RandomIndices(regime.na, 0, regime.hi - 1, &rng), &rng);
      const Row b =
          MakeRow(RandomIndices(regime.nb, 0, regime.hi - 1, &rng), &rng);
      ExpectDotMatchesMerge(a, b,
                            StrFormat("fuzz na=%zu nb=%zu hi=%u rep=%d",
                                      regime.na, regime.nb, regime.hi, rep));
    }
  }
}

// --- Dot(dense) -------------------------------------------------------------

TEST(SparseDotTest, DenseDotMatchesBoundsCheckedLoop) {
  // The wrapper's lower_bound cutoff must equal skipping every index past
  // the dense size, with the same additions in the same order.
  Rng rng(7);
  for (size_t nnz : {1u, 8u, 15u, 16u, 64u, 300u}) {
    const Row a = MakeRow(RandomIndices(nnz, 0, 2047, &rng), &rng);
    std::vector<double> dense(1024);
    for (double& d : dense) d = rng.NextGaussian();
    double want = 0.0;
    for (size_t i = 0; i < a.n(); ++i) {
      if (a.idx[i] < dense.size()) want += a.val[i] * dense[a.idx[i]];
    }
    EXPECT_EQ(Bits(a.view().Dot(dense)), Bits(want)) << "nnz " << nnz;
  }
}

// --- Remap (pruning compaction) ---------------------------------------------

// Monotone old-id→dense-id table: each id is kept with probability
// `keep_fraction`, kept ids numbered densely in order (the shape
// FeaturePruner freezes).
std::vector<uint32_t> MakeRemapTable(size_t size, double keep_fraction,
                                     Rng* rng) {
  std::vector<uint32_t> remap(size, kPrunedFeature);
  uint32_t next = 0;
  for (size_t f = 0; f < size; ++f) {
    if (rng->NextDouble() < keep_fraction) remap[f] = next++;
  }
  return remap;
}

// Checks RemapInto (out of place, into poisoned buffers that catch writes
// past the kept count) and RemapThrough (in place, outputs aliasing the
// inputs) against a plain filter over every entry. Pure data movement, so
// exact equality is the whole contract.
void ExpectRemapKeeps(const Row& a, const std::vector<uint32_t>& remap,
                      const std::string& label) {
  SCOPED_TRACE(label);
  std::vector<uint32_t> want_idx;
  std::vector<double> want_val;
  for (size_t i = 0; i < a.n(); ++i) {
    if (a.idx[i] >= remap.size() || remap[a.idx[i]] == kPrunedFeature) {
      continue;
    }
    want_idx.push_back(remap[a.idx[i]]);
    want_val.push_back(a.val[i]);
  }

  std::vector<uint32_t> got_idx(a.n(), 0xdeadbeefu);
  std::vector<double> got_val(a.n(), -12345.0);
  const size_t got_n = a.view().RemapInto(remap.data(), remap.size(),
                                          got_idx.data(), got_val.data());
  ASSERT_EQ(got_n, want_idx.size());
  for (size_t i = 0; i < got_n; ++i) {
    ASSERT_EQ(got_idx[i], want_idx[i]) << "index slot " << i;
    ASSERT_EQ(Bits(got_val[i]), Bits(want_val[i])) << "value slot " << i;
  }
  for (size_t i = got_n; i < a.n(); ++i) {
    ASSERT_EQ(got_idx[i], 0xdeadbeefu) << "write past kept count " << i;
  }

  SparseVector v;
  for (size_t i = 0; i < a.n(); ++i) v.PushBack(a.idx[i], a.val[i]);
  v.RemapThrough(remap.data(), remap.size());
  ASSERT_EQ(v.indices(), want_idx);
  ASSERT_EQ(v.num_nonzero(), want_val.size());
  for (size_t i = 0; i < want_val.size(); ++i) {
    ASSERT_EQ(Bits(v.values()[i]), Bits(want_val[i])) << "in-place slot " << i;
  }
}

TEST(SparseRemapTest, AdversarialPatterns) {
  Rng rng(11);
  const size_t kDim = 512;
  std::vector<uint32_t> keep_all = MakeRemapTable(kDim, 1.0, &rng);
  std::vector<uint32_t> drop_all = MakeRemapTable(kDim, 0.0, &rng);
  std::vector<uint32_t> half = MakeRemapTable(kDim, 0.5, &rng);
  // Alternating keep/prune: run length 1 throughout.
  std::vector<uint32_t> alternating(kDim, kPrunedFeature);
  uint32_t next = 0;
  for (size_t f = 0; f < kDim; f += 2) alternating[f] = next++;

  const Row empty;
  ExpectRemapKeeps(empty, half, "empty row");
  const Row one = MakeRow({17}, &rng);
  ExpectRemapKeeps(one, keep_all, "single kept");
  ExpectRemapKeeps(one, drop_all, "single pruned");
  const Row row = MakeRow(RandomIndices(100, 0, kDim - 1, &rng), &rng);
  ExpectRemapKeeps(row, keep_all, "keep everything");
  ExpectRemapKeeps(row, drop_all, "prune everything");
  ExpectRemapKeeps(row, half, "half pruned");
  ExpectRemapKeeps(row, alternating, "alternating keep/prune");
  // Indices at and past the table size form a droppable suffix.
  const Row straddling =
      MakeRow(RandomIndices(64, kDim - 32, kDim + 31, &rng), &rng);
  ExpectRemapKeeps(straddling, half, "ids straddling table size");
  const Row beyond = MakeRow({kDim, kDim + 1, 4096, UINT32_MAX}, &rng);
  ExpectRemapKeeps(beyond, half, "all ids out of range");
  const Row top = MakeRow({3, 100, UINT32_MAX}, &rng);
  ExpectRemapKeeps(top, keep_all, "UINT32_MAX entry dropped as suffix");
}

TEST(SparseRemapTest, Fuzz) {
  // nnz sweep x keep fractions from drop-all to keep-all, on tables sized
  // to force both in-range and suffix paths.
  Rng rng(20260812);
  const size_t kDim = 4096;
  for (double keep : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    std::vector<uint32_t> remap = MakeRemapTable(kDim, keep, &rng);
    for (size_t nnz : {1u, 7u, 8u, 15u, 16u, 31u, 63u, 64u, 128u, 300u}) {
      for (int rep = 0; rep < 6; ++rep) {
        const Row a = MakeRow(
            RandomIndices(nnz, 0, static_cast<uint32_t>(kDim) + 63, &rng),
            &rng);
        ExpectRemapKeeps(a, remap,
                         StrFormat("fuzz keep=%.1f nnz=%zu rep=%d", keep, nnz,
                                   rep));
      }
    }
  }
}

}  // namespace
}  // namespace zombie
