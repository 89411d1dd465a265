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

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
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

/// Strict weak order on (score, index): ascending score with NaN after
/// +inf, then ascending index. On NaN-free input it is std::pair's <; a
/// NaN score among finite ones (an unsanitized NaN coordinate) makes the
/// pair < no order at all, and std::sort over it undefined behaviour.
inline bool score_index_less(double a, std::size_t ia, double b,
                             std::size_t ib) noexcept {
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  if (a_nan != b_nan) return b_nan;
  if (!a_nan && a != b) return a < b;
  return ia < ib;
}

/// score_index_less over (score, index) pairs, for ranking vectors.
inline bool ranked_less(const std::pair<double, std::size_t>& a,
                        const std::pair<double, std::size_t>& b) noexcept {
  return score_index_less(a.first, a.second, b.first, b.second);
}

/// Krum scoring over one round's squared-distance matrix.
///
/// Construction sorts every row once: row i holds the indices 0..n−1 in
/// score_index_less order of their distance to i, n²·4 B of uint32
/// (160 KB at n = 200). A score is a walk along row i that skips i and
/// the excluded indices and sums the first `num_neighbors` distances it
/// reaches. Those are the k smallest remaining distances, added smallest
/// first: the same values in the same order as a partial_sort of the
/// remaining row (ties hold equal values, so their order cannot change
/// the sum). Every score is therefore bitwise the one per-score sorting
/// gives, and successive exclusion re-sorts nothing: θ picks over n
/// updates cost n²·log n for the row sorts plus θ·n walks of at most n
/// steps.
class KrumScorer {
 public:
  explicit KrumScorer(PairwiseMatrix sq_dist);

  std::size_t size() const noexcept { return sq_dist_.size(); }

  /// Krum score of update `i`: sum of its `num_neighbors` smallest squared
  /// distances to other non-excluded updates (all of them when fewer
  /// remain).
  double score(std::size_t i, std::size_t num_neighbors,
               const std::vector<bool>& excluded) const;

 private:
  PairwiseMatrix sq_dist_;
  std::vector<std::uint32_t> order_;  // row i = order_[i·n, (i+1)·n)
};

/// Successive-exclusion Multi-Krum: up to `picks` times, takes the
/// non-excluded update with the lowest score (strict <, so the lowest
/// index wins ties), marks it in `excluded` and appends it to the result.
/// Stops early once no remaining score is below +inf (every update is
/// excluded, or the rest score +inf or NaN). Returns the picks in order.
std::vector<std::size_t> successive_krum_picks(const KrumScorer& scorer,
                                               std::size_t picks,
                                               std::size_t num_neighbors,
                                               std::vector<bool>& excluded);

}  // namespace zka::defense
