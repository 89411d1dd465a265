#include "defense/distance.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "tensor/ops.h"
#include "tensor/reduce.h"
#include "util/check.h"

namespace zka::defense {
namespace {

// Below either bound the Gram detour (pack + GEMM + correction scan) costs
// more than exact per-pair reductions.
constexpr std::size_t kGramMinRows = 8;
constexpr std::size_t kGramMinDim = 64;

// Row-parallel assembly: task i owns the strictly-upper entries of row i
// plus their mirrors in column i, so writes are disjoint and every entry
// is a pure function of (i, j) — deterministic for any thread count.
void for_each_row(std::size_t n, std::size_t dim,
                  const std::function<void(std::size_t)>& body) {
  tensor::kernel_parallel_for(n, n * dim >= (std::size_t{1} << 18), body);
}

// Update-dimension agreement: every pairwise reduction below assumes a
// rectangular [n, dim] block.
void dcheck_rectangular(std::span<const UpdateView> updates, std::size_t dim) {
  if constexpr (!util::kContractsEnabled) return;
  for (std::size_t k = 0; k < updates.size(); ++k) {
    ZKA_DCHECK(updates[k].size() == dim,
               "pairwise: update %zu has %zu coordinates, expected %zu", k,
               updates[k].size(), dim);
  }
}

}  // namespace

PairwiseMatrix pairwise_sq_distances(std::span<const UpdateView> updates) {
  const std::size_t n = updates.size();
  PairwiseMatrix d(n);
  if (n < 2) return d;
  const std::size_t dim = updates.front().size();
  dcheck_rectangular(updates, dim);

  if (n >= kGramMinRows && dim >= kGramMinDim) {
    std::vector<float> gram(n * n);
    std::vector<double> sqn(n);
    tensor::gram_matrix(updates, gram, sqn);
    for_each_row(n, dim, [&](std::size_t i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double scale = sqn[i] + sqn[j];
        double d2 = scale - 2.0 * static_cast<double>(gram[i * n + j]);
        // Cancellation guard: a small expanded distance (colluders, and
        // any negative round-off) is mostly float noise — recompute it
        // exactly so Krum's tiny-margin rankings stay trustworthy.
        if (d2 < kCorrectionThreshold * scale) {
          d2 = tensor::squared_distance(updates[i], updates[j]);
        }
        d(i, j) = d2;
        d(j, i) = d2;
      }
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d2 = tensor::squared_distance(updates[i], updates[j]);
        d(i, j) = d2;
        d(j, i) = d2;
      }
    }
  }
  return d;
}

PairwiseMatrix pairwise_cosine(std::span<const UpdateView> updates) {
  const std::size_t n = updates.size();
  PairwiseMatrix cs(n);
  if (n == 0) return cs;
  const std::size_t dim = updates.front().size();
  dcheck_rectangular(updates, dim);

  if (n >= kGramMinRows && dim >= kGramMinDim) {
    std::vector<float> gram(n * n);
    std::vector<double> sqn(n);
    tensor::gram_matrix(updates, gram, sqn);
    std::vector<double> inv_norm(n);
    for (std::size_t i = 0; i < n; ++i) {
      inv_norm[i] = sqn[i] > 0.0 ? 1.0 / std::sqrt(sqn[i]) : 0.0;
    }
    for_each_row(n, dim, [&](std::size_t i) {
      cs(i, i) = sqn[i] > 0.0 ? 1.0 : 0.0;
      for (std::size_t j = i + 1; j < n; ++j) {
        const double c =
            static_cast<double>(gram[i * n + j]) * inv_norm[i] * inv_norm[j];
        cs(i, j) = c;
        cs(j, i) = c;
      }
    });
  } else {
    std::vector<double> sqn(n);
    for (std::size_t i = 0; i < n; ++i) {
      sqn[i] = tensor::squared_norm(updates[i]);
      cs(i, i) = sqn[i] > 0.0 ? 1.0 : 0.0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        double c = 0.0;
        if (sqn[i] > 0.0 && sqn[j] > 0.0) {
          c = tensor::dot(updates[i], updates[j]) /
              (std::sqrt(sqn[i]) * std::sqrt(sqn[j]));
        }
        cs(i, j) = c;
        cs(j, i) = c;
      }
    }
  }
  return cs;
}

KrumScorer::KrumScorer(PairwiseMatrix sq_dist)
    : sq_dist_(std::move(sq_dist)) {
  const std::size_t n = sq_dist_.size();
  ZKA_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
            "KrumScorer: %zu updates overflow the uint32 row order", n);
  order_.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = sq_dist_.row(i);
    const auto first = order_.begin() + static_cast<std::ptrdiff_t>(i * n);
    const auto last = first + static_cast<std::ptrdiff_t>(n);
    std::iota(first, last, std::uint32_t{0});
    std::sort(first, last, [row](std::uint32_t a, std::uint32_t b) {
      return score_index_less(row[a], a, row[b], b);
    });
  }
}

double KrumScorer::score(std::size_t i, std::size_t num_neighbors,
                         const std::vector<bool>& excluded) const {
  const std::size_t n = sq_dist_.size();
  ZKA_DCHECK(i < n, "KrumScorer::score: index %zu out of %zu updates", i, n);
  ZKA_DCHECK(excluded.size() == n,
             "KrumScorer::score: exclusion mask of %zu for %zu updates",
             excluded.size(), n);
  const double* row = sq_dist_.row(i);
  const std::uint32_t* order = order_.data() + i * n;
  double score = 0.0;
  std::size_t taken = 0;
  for (std::size_t t = 0; t < n && taken < num_neighbors; ++t) {
    const std::size_t j = order[t];
    if (j == i || excluded[j]) continue;
    score += row[j];
    ++taken;
  }
  return score;
}

std::vector<std::size_t> successive_krum_picks(const KrumScorer& scorer,
                                               std::size_t picks,
                                               std::size_t num_neighbors,
                                               std::vector<bool>& excluded) {
  const std::size_t n = scorer.size();
  std::vector<std::size_t> picked;
  picked.reserve(std::min(picks, n));
  for (std::size_t round = 0; round < picks; ++round) {
    double best_score = std::numeric_limits<double>::infinity();
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (excluded[i]) continue;
      const double score = scorer.score(i, num_neighbors, excluded);
      if (score < best_score) {
        best_score = score;
        best = i;
      }
    }
    if (best == n) break;
    excluded[best] = true;
    picked.push_back(best);
  }
  return picked;
}

}  // namespace zka::defense
