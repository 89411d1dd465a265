// Pairwise geometry shared by Krum, Bulyan, FoolsGold and the analysis
// layer, computed through the tensor fast path.
//
// The O(n²·d) pairwise pass is the dominant cost of every distance-based
// defense, and as n separate dot products it is memory-bound: each update
// streams from RAM n times. Expanding ‖a−b‖² = ‖a‖² + ‖b‖² − 2·aᵀb turns
// the whole job into one Gram matrix G = A·Aᵀ through the packed, blocked
// GEMM, which reads each update O(n/NC) times from cache instead.
//
// The expansion is numerically dangerous exactly where the defenses are
// most sensitive: colluding attackers submit near-identical updates, whose
// true distance is the difference of two large, nearly equal numbers. A
// float32 Gram entry carries ~1e-7 relative error, so a pair at relative
// distance below ~1e-3 would surface mostly noise — and those tiny
// distances are precisely what drives Krum's neighbor sums. Therefore any
// entry whose expanded d² falls below kCorrectionThreshold × (‖a‖²+‖b‖²)
// is recomputed exactly (double-accumulated diff-square over the raw
// floats). Everything the scalar reference would rank by tiny margins goes
// through the exact path, so selections match the scalar implementation.
#pragma once

#include <cstddef>
#include <vector>

#include "defense/aggregator.h"

namespace zka::defense {

/// Dense symmetric n×n matrix stored flat (row-major); replaces the old
/// vector<vector<double>> so rows are contiguous and cache-friendly.
class PairwiseMatrix {
 public:
  PairwiseMatrix() = default;
  explicit PairwiseMatrix(std::size_t n) : n_(n), data_(n * n, 0.0) {}

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * n_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * n_ + j];
  }
  /// Contiguous row i (n entries).
  const double* row(std::size_t i) const { return data_.data() + i * n_; }
  std::size_t size() const noexcept { return n_; }

 private:
  std::size_t n_ = 0;
  std::vector<double> data_;
};

/// Relative threshold below which an expanded squared distance is
/// recomputed exactly in double (see file comment).
inline constexpr double kCorrectionThreshold = 0.05;

/// Symmetric matrix of squared L2 distances. Uses the Gram fast path for
/// problems big enough to care (n ≥ 8 and dim ≥ 64), exact per-pair
/// reductions otherwise. Deterministic for any thread count.
PairwiseMatrix pairwise_sq_distances(std::span<const UpdateView> updates);

/// Symmetric matrix of cosine similarities (diagonal = 1; 0 for zero-norm
/// rows), same fast/exact path split as pairwise_sq_distances.
PairwiseMatrix pairwise_cosine(std::span<const UpdateView> updates);

/// Krum score of update `i`: sum of its `num_neighbors` smallest squared
/// distances to other non-excluded updates.
double krum_score(const PairwiseMatrix& sq_dist, std::size_t i,
                  std::size_t num_neighbors,
                  const std::vector<bool>& excluded);

/// Successive-exclusion Multi-Krum: up to `picks` times, takes the
/// non-excluded update with the lowest krum_score (strict <, so the lowest
/// index wins ties), marks it in `excluded` and appends it to the result.
/// Stops early once every update is excluded. Returns the picks in order.
std::vector<std::size_t> successive_krum_picks(const PairwiseMatrix& sq_dist,
                                               std::size_t picks,
                                               std::size_t num_neighbors,
                                               std::vector<bool>& excluded);

}  // namespace zka::defense
