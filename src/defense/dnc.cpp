#include "defense/dnc.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "defense/distance.h"
#include "defense/fedavg.h"
#include "tensor/reduce.h"
#include "util/check.h"
#include "util/prof.h"

namespace zka::defense {

AggregationResult Dnc::do_aggregate(std::span<const UpdateView> updates,
                                 std::span<const std::int64_t> weights) {
  ZKA_PROF_SCOPE("aggregate/dnc");
  validate_updates(updates, weights);
  ZKA_CHECK(options_.subsample_dim > 0, "DnC: subsample_dim must be positive");
  ZKA_CHECK(options_.filter_fraction >= 0.0,
            "DnC: filter_fraction %g is negative", options_.filter_fraction);
  ZKA_CHECK(options_.iterations >= 0 && options_.power_iterations > 0,
            "DnC: iterations=%d power_iterations=%d out of range",
            options_.iterations, options_.power_iterations);
  const std::size_t n = updates.size();
  const std::size_t dim = updates.front().size();
  const std::size_t discard = std::min(
      n - 1, static_cast<std::size_t>(std::llround(
                 options_.filter_fraction *
                 static_cast<double>(options_.num_byzantine))));

  std::vector<bool> accepted(n, true);
  std::size_t accepted_count = n;
  // Sorted scores of the most recent iteration, over that iteration's
  // candidate set — what the empty-selection fallback draws its argmin
  // from.
  std::vector<std::pair<double, std::size_t>> scores;
  for (int iter = 0; iter < options_.iterations && accepted_count > 0;
       ++iter) {
    // Every statistic below runs over the *currently accepted* set only:
    // scoring all n rows would let an already-rejected extreme outlier
    // keep dominating the spectral direction and re-absorb the iteration's
    // entire filter budget, so later iterations would never see a fresh
    // candidate to discard.
    const std::size_t na = accepted_count;

    // Random coordinate block.
    const std::size_t b = std::min(options_.subsample_dim, dim);
    std::vector<std::size_t> coords(b);
    if (b == dim) {
      std::iota(coords.begin(), coords.end(), 0);
    } else {
      const auto picked = rng_.sample_without_replacement(dim, b);
      coords.assign(picked.begin(), picked.end());
    }

    // An accepted row with a non-finite value in the block (possible only
    // with sanitizing off) would make the centering mean, and with it every
    // score, NaN. Such a row scores NaN itself, which ranked_less puts after
    // +inf, so it is discarded first; the statistics run over the others.
    std::vector<std::size_t> active;
    active.reserve(na);
    scores.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (!accepted[i]) continue;
      const bool finite = std::all_of(coords.begin(), coords.end(),
                                      [&](std::size_t c) {
                                        return std::isfinite(updates[i][c]);
                                      });
      if (finite) {
        active.push_back(i);
      } else {
        scores.emplace_back(std::numeric_limits<double>::quiet_NaN(), i);
      }
    }
    const std::size_t nf = active.size();

    // Centered submatrix A [nf, b].
    std::vector<double> mean(b, 0.0);
    for (const std::size_t i : active) {
      for (std::size_t j = 0; j < b; ++j) {
        mean[j] += static_cast<double>(updates[i][coords[j]]);
      }
    }
    for (auto& m : mean) m /= static_cast<double>(nf);
    std::vector<double> a(nf * b);
    for (std::size_t r = 0; r < nf; ++r) {
      for (std::size_t j = 0; j < b; ++j) {
        a[r * b + j] =
            static_cast<double>(updates[active[r]][coords[j]]) - mean[j];
      }
    }
    const auto row = [&](std::size_t r) {
      return std::span<const double>(a.data() + r * b, b);
    };

    // Power iteration for the top right singular vector v in R^b.
    std::vector<double> v(b);
    for (std::size_t j = 0; j < b; ++j) {
      v[j] = std::sin(0.37 * static_cast<double>(j + 1)) + 0.011;
    }
    std::vector<double> av(nf);
    std::vector<double> vnext(b);
    for (int it = 0; it < options_.power_iterations; ++it) {
      for (std::size_t r = 0; r < nf; ++r) av[r] = tensor::dot(row(r), v);
      // v <- A^T (A v), accumulated row by row (same r-ascending order the
      // scalar column loop used).
      std::fill(vnext.begin(), vnext.end(), 0.0);
      for (std::size_t r = 0; r < nf; ++r) {
        tensor::axpy(av[r], row(r), vnext);
      }
      const double norm = std::sqrt(tensor::dot(
          std::span<const double>(vnext), std::span<const double>(vnext)));
      v.swap(vnext);
      if (norm < 1e-12) break;  // centered data is degenerate
      for (auto& x : v) x /= norm;
    }

    // Outlier scores: squared projection on v.
    for (std::size_t r = 0; r < nf; ++r) {
      const double acc = tensor::dot(row(r), v);
      scores.emplace_back(acc * acc, active[r]);
    }
    std::sort(scores.begin(), scores.end(), ranked_less);
    // Discard the `discard` highest-scoring survivors this iteration (all
    // of them on tiny rounds — the fallback below recovers).
    const std::size_t kill = std::min(discard, na);
    for (std::size_t k = na - kill; k < na; ++k) {
      accepted[scores[k].second] = false;
    }
    accepted_count -= kill;
  }

  AggregationResult result;
  for (std::size_t i = 0; i < n; ++i) {
    if (accepted[i]) result.selected.push_back(i);
  }
  if (result.selected.empty()) {
    // Everything filtered (tiny rounds): fall back to the single
    // lowest-score update of the last scored candidate set to keep the
    // server making progress.
    ZKA_CHECK(!scores.empty(), "DnC: empty selection with no scored iteration");
    result.selected.push_back(scores.front().second);
  }
  // Deliberately unweighted: like mKrum and Bulyan, DnC treats its
  // accepted set as a vetted committee and averages it uniformly —
  // sample-count weighting would let one heavy (or weight-inflating)
  // client dominate the very mean the spectral filter just defended.
  result.model = mean_of(updates, result.selected);
  return result;
}

}  // namespace zka::defense
