#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "defense/bulyan.h"
#include "defense/distance.h"
#include "defense/fedavg.h"
#include "defense/foolsgold.h"
#include "defense/geometric_median.h"
#include "defense/krum.h"
#include "defense/norm_clip.h"
#include "defense/statistic.h"
#include "util/rng.h"

namespace zka::defense {
namespace {

std::vector<std::int64_t> unit_weights(std::size_t n) {
  return std::vector<std::int64_t>(n, 1);
}

std::vector<Update> clustered_updates(std::size_t benign, std::size_t mal,
                                      std::size_t dim, std::uint64_t seed,
                                      float mal_offset = 10.0f) {
  util::Rng rng(seed);
  std::vector<Update> updates;
  for (std::size_t i = 0; i < benign; ++i) {
    Update u(dim);
    for (auto& x : u) x = static_cast<float>(rng.normal(0.0, 0.1));
    updates.push_back(std::move(u));
  }
  for (std::size_t i = 0; i < mal; ++i) {
    Update u(dim);
    for (auto& x : u) {
      x = mal_offset + static_cast<float>(rng.normal(0.0, 0.1));
    }
    updates.push_back(std::move(u));
  }
  return updates;
}

TEST(Validation, RejectsBadInput) {
  FedAvg agg;
  EXPECT_THROW(agg.aggregate(std::vector<Update>{}, {}),
               std::invalid_argument);
  EXPECT_THROW(agg.aggregate({{1.0f}}, {}), std::invalid_argument);
  EXPECT_THROW(agg.aggregate({{1.0f}, {1.0f, 2.0f}}, unit_weights(2)),
               std::invalid_argument);
  EXPECT_THROW(agg.aggregate({{1.0f}}, {-1}), std::invalid_argument);
  EXPECT_THROW(agg.aggregate({{}}, {1}), std::invalid_argument);
}

TEST(FedAvgRule, WeightedMean) {
  FedAvg agg;
  const std::vector<Update> updates{{1.0f, 0.0f}, {4.0f, 6.0f}};
  const auto result = agg.aggregate(updates, {1, 2});
  EXPECT_NEAR(result.model[0], (1.0 + 2 * 4.0) / 3.0, 1e-6);
  EXPECT_NEAR(result.model[1], 4.0, 1e-6);
  EXPECT_TRUE(result.selected.empty());
  EXPECT_FALSE(agg.selects_clients());
}

TEST(FedAvgRule, ZeroWeightsFallBackToPlainMean) {
  FedAvg agg;
  const auto result = agg.aggregate({{2.0f}, {4.0f}}, {0, 0});
  EXPECT_NEAR(result.model[0], 3.0, 1e-6);
}

TEST(MedianRule, CoordinateWiseMedian) {
  Median agg;
  const std::vector<Update> updates{{1.0f, 10.0f}, {2.0f, 20.0f},
                                    {3.0f, 0.0f}};
  const auto result = agg.aggregate(updates, unit_weights(3));
  EXPECT_FLOAT_EQ(result.model[0], 2.0f);
  EXPECT_FLOAT_EQ(result.model[1], 10.0f);
}

TEST(MedianRule, RobustToSingleHugeOutlier) {
  Median agg;
  const std::vector<Update> updates{{1.0f}, {1.1f}, {0.9f}, {1e9f}};
  const auto result = agg.aggregate(updates, unit_weights(4));
  EXPECT_LT(result.model[0], 2.0f);
}

TEST(TrimmedMeanRule, ExcludesExtremes) {
  TrimmedMean agg(1);
  const std::vector<Update> updates{{-100.0f}, {1.0f}, {2.0f}, {3.0f},
                                    {100.0f}};
  const auto result = agg.aggregate(updates, unit_weights(5));
  EXPECT_NEAR(result.model[0], 2.0f, 1e-6);
}

TEST(TrimmedMeanRule, RequiresEnoughUpdates) {
  TrimmedMean agg(2);
  EXPECT_THROW(agg.aggregate({{1.0f}, {2.0f}, {3.0f}, {4.0f}},
                             unit_weights(4)),
               std::invalid_argument);
}

TEST(PairwiseDistances, SymmetricAndCorrect) {
  const std::vector<Update> updates{{0.0f, 0.0f}, {3.0f, 4.0f}};
  const auto views = as_views(updates);
  const PairwiseMatrix d = pairwise_sq_distances(views);
  EXPECT_NEAR(d(0, 1), 25.0, 1e-6);
  EXPECT_NEAR(d(1, 0), 25.0, 1e-6);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
}

// Scalar double-precision reference for the Gram fast path: plain
// difference-square accumulation, the pre-rework implementation.
std::vector<std::vector<double>> scalar_sq_distances(
    const std::vector<Update>& updates) {
  const std::size_t n = updates.size();
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < updates[i].size(); ++k) {
        const double diff =
            static_cast<double>(updates[i][k]) - updates[j][k];
        acc += diff * diff;
      }
      d[i][j] = acc;
      d[j][i] = acc;
    }
  }
  return d;
}

// Reference Krum selection run directly on a reference distance matrix
// (mirrors MultiKrum::select so Gram-path selections can be cross-checked).
std::vector<std::size_t> reference_krum_select(
    const std::vector<std::vector<double>>& d, std::size_t f, std::size_t m,
    bool iterative) {
  const std::size_t n = d.size();
  const std::size_t neighbors = n > f + 2 ? n - f - 2 : 1;
  auto score = [&](std::size_t i, const std::vector<bool>& excluded) {
    std::vector<double> row;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i && !excluded[j]) row.push_back(d[i][j]);
    }
    const std::size_t k = std::min(neighbors, row.size());
    std::partial_sort(row.begin(), row.begin() + static_cast<long>(k),
                      row.end());
    double s = 0.0;
    for (std::size_t j = 0; j < k; ++j) s += row[j];
    return s;
  };
  std::vector<bool> excluded(n, false);
  std::vector<std::size_t> selected;
  if (!iterative) {
    std::vector<std::pair<double, std::size_t>> ranked;
    for (std::size_t i = 0; i < n; ++i) {
      ranked.emplace_back(score(i, excluded), i);
    }
    std::sort(ranked.begin(), ranked.end());
    for (std::size_t k = 0; k < m; ++k) selected.push_back(ranked[k].second);
  } else {
    for (std::size_t round = 0; round < m; ++round) {
      double best_score = std::numeric_limits<double>::infinity();
      std::size_t best = n;
      for (std::size_t i = 0; i < n; ++i) {
        if (excluded[i]) continue;
        const double s = score(i, excluded);
        if (s < best_score) {
          best_score = s;
          best = i;
        }
      }
      if (best == n) break;
      excluded[best] = true;
      selected.push_back(best);
    }
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

// Big enough for the Gram fast path (n >= 8, dim >= 64), with a colluding
// near-duplicate pair whose tiny mutual distance exercises the exact
// correction pass.
std::vector<Update> gram_path_updates(std::size_t n, std::size_t dim,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Update> updates;
  for (std::size_t i = 0; i + 2 < n; ++i) {
    Update u(dim);
    for (auto& x : u) x = static_cast<float>(rng.normal(0.0, 1.0));
    updates.push_back(std::move(u));
  }
  Update colluder(dim);
  for (auto& x : colluder) x = static_cast<float>(rng.normal(3.0, 1.0));
  Update near_copy = colluder;
  for (auto& x : near_copy) x += static_cast<float>(rng.normal(0.0, 1e-5));
  updates.push_back(std::move(colluder));
  updates.push_back(std::move(near_copy));
  return updates;
}

TEST(PairwiseDistances, GramPathMatchesScalarReference) {
  const auto updates = gram_path_updates(12, 300, 77);
  const auto views = as_views(updates);
  const PairwiseMatrix fast = pairwise_sq_distances(views);
  const auto ref = scalar_sq_distances(updates);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    for (std::size_t j = 0; j < updates.size(); ++j) {
      const double tol = 1e-5 * std::max(1.0, ref[i][j]);
      EXPECT_NEAR(fast(i, j), ref[i][j], tol) << i << "," << j;
    }
  }
}

TEST(PairwiseDistances, CorrectionPassIsExactForColluders) {
  const auto updates = gram_path_updates(12, 300, 78);
  const auto views = as_views(updates);
  const PairwiseMatrix fast = pairwise_sq_distances(views);
  const auto ref = scalar_sq_distances(updates);
  // The colluding pair's distance is ~dim * 1e-10 — far below the float
  // Gram noise floor of its ~dim * 10 norms, so only the exact correction
  // pass can produce it. Demand double-level relative accuracy (the lane
  // association differs from the sequential reference by a few ulps).
  const std::size_t a = updates.size() - 2;
  const std::size_t b = updates.size() - 1;
  ASSERT_LT(ref[a][b], 1e-3);
  EXPECT_NEAR(fast(a, b), ref[a][b], 1e-10 * ref[a][b]);
}

TEST(KrumRule, GramPathSelectionsMatchScalarReference) {
  const auto updates = gram_path_updates(16, 200, 79);
  const auto views = as_views(updates);
  const auto ref = scalar_sq_distances(updates);
  for (const bool iterative : {false, true}) {
    for (const std::size_t m : {std::size_t{1}, std::size_t{4}}) {
      MultiKrum krum(3, m, iterative);
      EXPECT_EQ(krum.select(views), reference_krum_select(ref, 3, m, iterative))
          << "iterative=" << iterative << " m=" << m;
    }
  }
}

TEST(BulyanRule, GramPathSelectionsMatchScalarReference) {
  const std::size_t f = 2;
  const auto updates = gram_path_updates(14, 200, 80);
  const auto views = as_views(updates);
  Bulyan bulyan(f);
  const auto result =
      bulyan.aggregate(views, std::vector<std::int64_t>(updates.size(), 1));
  // Bulyan's selection stage is iterative Multi-Krum with theta = n - 2f.
  const auto ref = scalar_sq_distances(updates);
  const std::size_t theta = updates.size() - 2 * f;
  EXPECT_EQ(result.selected, reference_krum_select(ref, f, theta, true));
}

// The scorer KrumScorer replaced, kept verbatim as the bitwise reference:
// copy the non-excluded distances, partial_sort the k smallest, sum them
// in ascending order.
double per_score_sort_krum_score(const PairwiseMatrix& sq_dist, std::size_t i,
                                 std::size_t num_neighbors,
                                 const std::vector<bool>& excluded) {
  const std::size_t n = sq_dist.size();
  std::vector<double> dists;
  dists.reserve(n);
  const double* row = sq_dist.row(i);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == i || excluded[j]) continue;
    dists.push_back(row[j]);
  }
  const std::size_t k = std::min(num_neighbors, dists.size());
  std::partial_sort(dists.begin(),
                    dists.begin() + static_cast<std::ptrdiff_t>(k),
                    dists.end());
  double score = 0.0;
  for (std::size_t j = 0; j < k; ++j) score += dists[j];
  return score;
}

std::vector<std::size_t> per_score_sort_krum_picks(
    const PairwiseMatrix& sq_dist, std::size_t picks,
    std::size_t num_neighbors, std::vector<bool>& excluded) {
  const std::size_t n = sq_dist.size();
  std::vector<std::size_t> picked;
  for (std::size_t round = 0; round < picks; ++round) {
    double best_score = std::numeric_limits<double>::infinity();
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (excluded[i]) continue;
      const double score =
          per_score_sort_krum_score(sq_dist, i, num_neighbors, excluded);
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

// A symmetric, zero-diagonal matrix full of ties: updates drawn from a
// handful of integer positions (so whole rows repeat and many distances
// are equal or zero), scaled by a random factor so that sums round
// differently in different orders, optionally with continuous noise, and
// with some pairs set to +inf.
PairwiseMatrix tie_heavy_matrix(std::size_t n, util::Rng& rng) {
  const std::size_t positions = 1 + rng.uniform_index(4);
  const double scale = rng.uniform() < 0.5 ? 1.0 : rng.uniform(0.1, 10.0);
  const bool noisy = rng.uniform() < 0.3;
  const double inf_rate = rng.uniform() < 0.5 ? 0.0 : 0.1;
  std::vector<double> pos(n);
  for (auto& p : pos) p = static_cast<double>(rng.uniform_index(positions));
  PairwiseMatrix d(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double v = (pos[i] - pos[j]) * (pos[i] - pos[j]) * scale;
      if (noisy) v += rng.uniform(0.0, 3.0);
      if (rng.uniform() < inf_rate) {
        v = std::numeric_limits<double>::infinity();
      }
      d(i, j) = v;
      d(j, i) = v;
    }
  }
  return d;
}

TEST(KrumScorerParity, MatchesPerScoreSortBitwise) {
  util::Rng rng(20261019);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(63);
    const PairwiseMatrix d = tie_heavy_matrix(n, rng);
    const std::size_t f = rng.uniform_index(n);
    const std::size_t neighbors = n > f + 2 ? n - f - 2 : 1;
    const std::size_t picks = rng.uniform_index(n + 2);
    std::vector<bool> excluded(n, false);
    for (std::size_t i = 0; i < n; ++i) excluded[i] = rng.uniform() < 0.2;
    std::vector<bool> ref_excluded = excluded;

    const KrumScorer scorer(d);
    const auto picked = successive_krum_picks(scorer, picks, neighbors,
                                              excluded);
    const auto ref_picked =
        per_score_sort_krum_picks(d, picks, neighbors, ref_excluded);
    const std::string where = "trial " + std::to_string(trial) +
                              " n=" + std::to_string(n) +
                              " f=" + std::to_string(f);
    ASSERT_EQ(picked, ref_picked) << where;
    ASSERT_EQ(excluded, ref_excluded) << where;
    // Leftover scores rank the tail of sketched_order, so they must be the
    // same doubles, not merely equal ones.
    for (std::size_t i = 0; i < n; ++i) {
      if (excluded[i]) continue;
      const double got = scorer.score(i, neighbors, excluded);
      const double want =
          per_score_sort_krum_score(d, i, neighbors, ref_excluded);
      ASSERT_EQ(0, std::memcmp(&got, &want, sizeof(double)))
          << where << " i=" << i << ": " << got << " vs " << want;
    }
  }
}

TEST(KrumRule, PlainKrumPicksCentralUpdate) {
  MultiKrum krum(1, 1);
  // Three clustered points and one far outlier; Krum must not pick the
  // outlier.
  const std::vector<Update> updates{{0.0f}, {0.1f}, {-0.1f}, {50.0f}};
  const auto result = krum.aggregate(updates, unit_weights(4));
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_NE(result.selected[0], 3u);
  EXPECT_LT(std::abs(result.model[0]), 0.2f);
  EXPECT_EQ(krum.name(), "Krum");
}

TEST(KrumRule, MultiKrumSelectsRequestedCount) {
  MultiKrum mkrum(2, 4);
  const auto updates = clustered_updates(8, 2, 5, 42);
  const auto result = mkrum.aggregate(updates, unit_weights(10));
  EXPECT_EQ(result.selected.size(), 4u);
  EXPECT_TRUE(mkrum.selects_clients());
  EXPECT_EQ(mkrum.name(), "mKrum");
}

TEST(KrumRule, DefaultSelectionIsNMinusF) {
  MultiKrum mkrum(3);
  const auto updates = clustered_updates(10, 0, 4, 43);
  const auto result = mkrum.aggregate(updates, unit_weights(10));
  EXPECT_EQ(result.selected.size(), 7u);
}

TEST(KrumRule, OutliersExcludedFromSelection) {
  // Multi-Krum only guarantees malicious exclusion for m <= n - f - 2.
  MultiKrum mkrum(2, 6);
  const auto updates = clustered_updates(8, 2, 6, 44, 100.0f);
  const auto result = mkrum.aggregate(updates, unit_weights(10));
  for (const auto idx : result.selected) {
    EXPECT_LT(idx, 8u) << "malicious update selected";
  }
}

TEST(KrumRule, SingleUpdateDegenerate) {
  MultiKrum mkrum(0, 1);
  const auto result = mkrum.aggregate({{5.0f}}, unit_weights(1));
  EXPECT_FLOAT_EQ(result.model[0], 5.0f);
  EXPECT_EQ(result.selected, (std::vector<std::size_t>{0}));
}

TEST(BulyanRule, RejectsFarOutliers) {
  Bulyan bulyan(2);
  const auto updates = clustered_updates(8, 2, 6, 45, 50.0f);
  const auto result = bulyan.aggregate(updates, unit_weights(10));
  for (const auto idx : result.selected) EXPECT_LT(idx, 8u);
  for (const float v : result.model) EXPECT_LT(std::abs(v), 1.0f);
  EXPECT_TRUE(bulyan.selects_clients());
}

TEST(BulyanRule, AggregateWithinBenignRangePerCoordinate) {
  Bulyan bulyan(1);
  const std::vector<Update> updates{{1.0f}, {2.0f}, {3.0f}, {4.0f}, {5.0f}};
  const auto result = bulyan.aggregate(updates, unit_weights(5));
  EXPECT_GE(result.model[0], 1.0f);
  EXPECT_LE(result.model[0], 5.0f);
}

TEST(FoolsGoldRule, DownweightsIdenticalSybils) {
  FoolsGold fg;
  util::Rng rng(46);
  std::vector<Update> updates;
  // Four diverse benign updates.
  for (int i = 0; i < 4; ++i) {
    Update u(8);
    for (auto& x : u) x = static_cast<float>(rng.normal(0.0, 1.0));
    updates.push_back(std::move(u));
  }
  // Three identical Sybil updates.
  Update sybil(8);
  for (auto& x : sybil) x = static_cast<float>(rng.normal(0.0, 1.0));
  for (int i = 0; i < 3; ++i) updates.push_back(sybil);

  fg.aggregate(updates, unit_weights(7));
  const auto& w = fg.last_weights();
  ASSERT_EQ(w.size(), 7u);
  const double benign_mean = (w[0] + w[1] + w[2] + w[3]) / 4.0;
  const double sybil_mean = (w[4] + w[5] + w[6]) / 3.0;
  EXPECT_GT(benign_mean, sybil_mean + 0.3);
}

TEST(NormClipRule, BoundsOutlierInfluence) {
  NormClipping clip;
  const std::vector<Update> updates{{0.0f}, {0.1f}, {-0.1f}, {1000.0f}};
  const auto clipped = clip.aggregate(updates, unit_weights(4));
  FedAvg avg;
  const auto plain = avg.aggregate(updates, unit_weights(4));
  EXPECT_LT(std::abs(clipped.model[0]), std::abs(plain.model[0]) / 10.0f);
  EXPECT_FALSE(clip.selects_clients());
}

TEST(GeoMedianRule, WeiszfeldMatchesScalarReference) {
  // Scalar double-precision Weiszfeld, identical iteration policy to
  // GeometricMedian's defaults (50 iters, tol 1e-6, smoothing 1e-8).
  const auto updates = gram_path_updates(10, 128, 81);
  const std::size_t n = updates.size();
  const std::size_t dim = updates.front().size();
  std::vector<double> point(dim, 0.0);
  for (const auto& u : updates) {
    for (std::size_t i = 0; i < dim; ++i) point[i] += u[i] / double(n);
  }
  std::vector<double> next(dim);
  for (int iter = 0; iter < 50; ++iter) {
    double denom = 0.0;
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      double sq = 0.0;
      for (std::size_t i = 0; i < dim; ++i) {
        const double d = updates[k][i] - point[i];
        sq += d * d;
      }
      const double w = 1.0 / std::max(std::sqrt(sq), 1e-8);
      denom += w;
      for (std::size_t i = 0; i < dim; ++i) next[i] += w * updates[k][i];
    }
    double movement = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      next[i] /= denom;
      const double d = next[i] - point[i];
      movement += d * d;
    }
    point.swap(next);
    if (std::sqrt(movement) < 1e-6) break;
  }

  GeometricMedian gm;
  const auto result =
      gm.aggregate(as_views(updates), std::vector<std::int64_t>(n, 1));
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(result.model[i], point[i], 1e-4 * (1.0 + std::abs(point[i])))
        << "coordinate " << i;
  }
}

TEST(Factory, ConstructsEveryKnownAggregator) {
  for (const char* name : {"fedavg", "median", "trmean", "krum", "mkrum",
                           "bulyan", "foolsgold", "normclip"}) {
    const auto agg = make_aggregator(name, {.num_byzantine = 2});
    ASSERT_NE(agg, nullptr) << name;
    EXPECT_FALSE(agg->name().empty());
  }
  EXPECT_THROW(make_aggregator("nope", {.num_byzantine = 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace zka::defense
