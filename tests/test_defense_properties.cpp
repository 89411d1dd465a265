// Property-style checks that hold for every aggregation rule.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>

#include "defense/aggregator.h"
#include "util/check.h"
#include "util/rng.h"

namespace zka::defense {
namespace {

struct Case {
  const char* name;
  std::size_t f;
};

class DefenseProperty : public ::testing::TestWithParam<Case> {
 protected:
  std::unique_ptr<Aggregator> make() const {
    return make_aggregator(GetParam().name,
                           {.num_byzantine = GetParam().f});
  }
};

std::vector<Update> random_updates(std::size_t n, std::size_t dim,
                                   std::uint64_t seed, double spread = 1.0) {
  util::Rng rng(seed);
  std::vector<Update> updates(n, Update(dim));
  for (auto& u : updates) {
    for (auto& x : u) x = static_cast<float>(rng.normal(0.0, spread));
  }
  return updates;
}

TEST_P(DefenseProperty, IdenticalUpdatesAggregateToThemselves) {
  auto agg = make();
  const Update u{1.5f, -2.0f, 0.25f};
  const std::vector<Update> updates(7, u);
  const auto result = agg->aggregate(updates, std::vector<std::int64_t>(7, 1));
  ASSERT_EQ(result.model.size(), u.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(result.model[i], u[i], 1e-5) << agg->name();
  }
}

TEST_P(DefenseProperty, OutputWithinCoordinatewiseEnvelope) {
  auto agg = make();
  const auto updates = random_updates(9, 16, 7);
  const auto result =
      agg->aggregate(updates, std::vector<std::int64_t>(9, 1));
  for (std::size_t i = 0; i < 16; ++i) {
    float lo = updates[0][i];
    float hi = updates[0][i];
    for (const auto& u : updates) {
      lo = std::min(lo, u[i]);
      hi = std::max(hi, u[i]);
    }
    EXPECT_GE(result.model[i], lo - 1e-5f) << agg->name() << " coord " << i;
    EXPECT_LE(result.model[i], hi + 1e-5f) << agg->name() << " coord " << i;
  }
}

TEST_P(DefenseProperty, DeterministicAcrossCalls) {
  auto agg1 = make();
  auto agg2 = make();
  const auto updates = random_updates(8, 12, 11);
  const std::vector<std::int64_t> w(8, 1);
  EXPECT_EQ(agg1->aggregate(updates, w).model,
            agg2->aggregate(updates, w).model);
}

TEST_P(DefenseProperty, SelectionIndicesAreValidAndUnique) {
  auto agg = make();
  const auto updates = random_updates(10, 8, 13);
  const auto result =
      agg->aggregate(updates, std::vector<std::int64_t>(10, 1));
  std::vector<bool> seen(10, false);
  for (const auto idx : result.selected) {
    ASSERT_LT(idx, 10u) << agg->name();
    EXPECT_FALSE(seen[idx]) << agg->name() << " selected twice";
    seen[idx] = true;
  }
  if (!agg->selects_clients()) {
    EXPECT_TRUE(result.selected.empty()) << agg->name();
  } else {
    EXPECT_FALSE(result.selected.empty()) << agg->name();
  }
}

TEST_P(DefenseProperty, NonFiniteUpdatesSanitizedAtIngress) {
  // A single crafted NaN/Inf coordinate must never reach a rule: the
  // ingress layer (on by default) zeroes it, so every defense still
  // produces a finite model from a poisoned batch.
  auto agg = make();
  auto updates = random_updates(6, 10, 23);
  updates[3][7] = std::numeric_limits<float>::quiet_NaN();
  updates[5][2] = std::numeric_limits<float>::infinity();
  const std::vector<std::int64_t> w(6, 1);
  const auto result = agg->aggregate(updates, w);
  for (const float v : result.model) {
    EXPECT_TRUE(std::isfinite(v)) << agg->name();
  }
  EXPECT_GE(agg->ingress().zeroed_values(), 2u) << agg->name();
}

TEST_P(DefenseProperty, SanitizeOffIsPaperFaithful) {
  // With the ingress layer switched off the server is the undefended one
  // from the paper: nothing throws, and for the plain mean the poison
  // propagates — that hazard is exactly what A13 flags statically.
  auto agg = make();
  agg->set_sanitize({.enabled = false});
  auto updates = random_updates(6, 10, 23);
  updates[3][7] = std::numeric_limits<float>::quiet_NaN();
  const auto result = agg->aggregate(updates, std::vector<std::int64_t>(6, 1));
  EXPECT_EQ(agg->ingress().zeroed_values(), 0u) << agg->name();
  const std::string name = GetParam().name;
  if (name == "fedavg") {
    EXPECT_TRUE(std::isnan(result.model[7]));
  }
  // The streaming entry points must not throw where aggregate() does not.
  // mkrum streams with a sketch (a round this small buffers and runs the
  // exact rule); median and trmean fold through a tree whose budget fits
  // the whole round in one wave, which is the batch rule bit for bit.
  if (name != "mkrum" && name != "median" && name != "trmean") return;
  AggregatorOptions options;
  options.num_byzantine = GetParam().f;
  options.sketch_dim = 4;
  options.memory_budget_bytes = std::size_t{1} << 20;
  auto streaming = make_aggregator(name, options);
  streaming->set_sanitize({.enabled = false});
  ASSERT_TRUE(streaming->supports_streaming()) << name;
  streaming->begin_stream(updates.front().size(),
                          std::vector<std::int64_t>(6, 1));
  for (const auto& u : updates) streaming->stream_update(u);
  const auto streamed = streaming->finish_stream();
  EXPECT_EQ(streaming->ingress().zeroed_values(), 0u) << name;
  ASSERT_EQ(streamed.model.size(), result.model.size()) << name;
  if (name == "median") {
    EXPECT_EQ(0, std::memcmp(streamed.model.data(), result.model.data(),
                             result.model.size() * sizeof(float)));
  }
}

// Unsanitized NaN coordinates make NaN squared distances, in the exact
// per-pair path (dim < 64) and in the Gram path (dim >= 64) alike, and a NaN
// coordinate in DnC's sampled block a NaN row. The selections must stay
// defined on them: nothing throws, and the same round selects the same
// updates and model bits every time.
class NanRoundSelection
    : public ::testing::TestWithParam<
          std::tuple<const char*, std::size_t, std::size_t>> {
 protected:
  static constexpr std::size_t kNanUpdate = 5;

  static std::vector<Update> nan_round(std::size_t n, std::size_t dim) {
    auto updates = random_updates(n, dim, 31);
    updates[kNanUpdate][dim / 2] = std::numeric_limits<float>::quiet_NaN();
    return updates;
  }
  static std::unique_ptr<Aggregator> make_unsanitized(const char* name) {
    auto agg = make_aggregator(name, {.num_byzantine = 5});
    agg->set_sanitize({.enabled = false});
    return agg;
  }
};

TEST_P(NanRoundSelection, DeterministicWithoutSanitizing) {
  const auto [name, n, dim] = GetParam();
  const auto updates = nan_round(n, dim);
  const std::vector<std::int64_t> weights(n, 1);
  AggregationResult runs[2];
  for (auto& run : runs) {
    ASSERT_NO_THROW(run = make_unsanitized(name)->aggregate(updates, weights))
        << name;
  }
  EXPECT_EQ(runs[0].selected, runs[1].selected) << name;
  ASSERT_EQ(runs[0].model.size(), dim) << name;
  ASSERT_EQ(runs[1].model.size(), dim) << name;
  EXPECT_EQ(0, std::memcmp(runs[0].model.data(), runs[1].model.data(),
                           dim * sizeof(float)))
      << name;
}

TEST_P(NanRoundSelection, NanUpdateIsNeverSelected) {
  // The NaN update's score is NaN (all its distances are NaN; DnC scores a
  // row with a non-finite sampled value NaN), and NaN ranks after +inf, so
  // it never wins a pick or a rank; the other updates' scores skip the NaN
  // distance while enough finite neighbours remain.
  const auto [name, n, dim] = GetParam();
  const auto result = make_unsanitized(name)->aggregate(
      nan_round(n, dim), std::vector<std::int64_t>(n, 1));
  EXPECT_FALSE(result.selected.empty()) << name;
  for (const std::size_t i : result.selected) EXPECT_NE(i, kNanUpdate) << name;
  for (const float v : result.model) EXPECT_TRUE(std::isfinite(v)) << name;
}

INSTANTIATE_TEST_SUITE_P(
    DistanceRules, NanRoundSelection,
    ::testing::Combine(::testing::Values("krum", "mkrum", "bulyan"),
                       ::testing::Values(std::size_t{24}),
                       ::testing::Values(std::size_t{10}, std::size_t{96})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_dim" +
             std::to_string(std::get<2>(info.param));
    });

// DnC samples every coordinate at these dims, so the NaN reaches its block.
INSTANTIATE_TEST_SUITE_P(
    SpectralRule, NanRoundSelection,
    ::testing::Combine(::testing::Values("dnc"),
                       ::testing::Values(std::size_t{24}, std::size_t{64}),
                       ::testing::Values(std::size_t{10}, std::size_t{96})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_dim" +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(DefenseProperty, OutputFinite) {
  auto agg = make();
  const auto updates = random_updates(6, 10, 17, 100.0);
  const auto result =
      agg->aggregate(updates, std::vector<std::int64_t>(6, 1));
  for (const float v : result.model) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(
    AllDefenses, DefenseProperty,
    ::testing::Values(Case{"fedavg", 0}, Case{"median", 0}, Case{"trmean", 2},
                      Case{"krum", 2}, Case{"mkrum", 2}, Case{"bulyan", 2},
                      Case{"foolsgold", 0}, Case{"normclip", 0},
                      Case{"geomedian", 0}, Case{"centeredclip", 0},
                      Case{"dnc", 2}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

// Every misuse of the streaming protocol is rejected by the Aggregator base
// class, before any rule hook runs, for each rule that streams.
class StreamProtocolMisuse : public ::testing::TestWithParam<const char*> {
 protected:
  static constexpr std::size_t kN = 12;
  static constexpr std::size_t kDim = 64;

  std::unique_ptr<Aggregator> make() const {
    AggregatorOptions options;
    options.num_byzantine = 2;
    options.sketch_dim = 8;  // n >= 8, dim > 2k: mkrum really sketches
    options.memory_budget_bytes = 4 * kDim * sizeof(float);  // 4-ary tree
    return make_aggregator(GetParam(), options);
  }
  const std::vector<std::int64_t> weights_ =
      std::vector<std::int64_t>(kN, 1);
  const std::vector<Update> updates_ = random_updates(kN, kDim, 31);
};

TEST_P(StreamProtocolMisuse, BeginWhileOpen) {
  auto agg = make();
  agg->begin_stream(kDim, weights_);
  EXPECT_THROW(agg->begin_stream(kDim, weights_), util::ContractViolation);
}

TEST_P(StreamProtocolMisuse, UpdateWithoutStream) {
  auto agg = make();
  EXPECT_THROW(agg->stream_update(updates_[0]), util::ContractViolation);
}

TEST_P(StreamProtocolMisuse, ExtraRow) {
  auto agg = make();
  agg->begin_stream(kDim, weights_);
  for (const auto& u : updates_) agg->stream_update(u);
  EXPECT_THROW(agg->stream_update(updates_[0]), util::ContractViolation);
}

TEST_P(StreamProtocolMisuse, WrongDimension) {
  auto agg = make();
  agg->begin_stream(kDim, weights_);
  const Update wide(kDim + 1, 0.5f);
  EXPECT_THROW(agg->stream_update(wide), util::ContractViolation);
}

TEST_P(StreamProtocolMisuse, EarlyFinish) {
  auto agg = make();
  agg->begin_stream(kDim, weights_);
  for (std::size_t i = 0; i + 1 < kN; ++i) agg->stream_update(updates_[i]);
  EXPECT_THROW(agg->finish_stream(), util::ContractViolation);
}

TEST_P(StreamProtocolMisuse, UnservedOrUnrequestedReplays) {
  auto agg = make();
  agg->begin_stream(kDim, weights_);
  for (const auto& u : updates_) agg->stream_update(u);
  const auto request = agg->stream_replay_request();
  if (std::string(GetParam()) == "mkrum") {
    ASSERT_FALSE(request.empty());
  }
  if (request.empty()) {
    // Rules that never replay reject any replay at all.
    EXPECT_THROW(agg->stream_replay(0, updates_[0]), util::ContractViolation);
    return;
  }
  EXPECT_THROW(agg->finish_stream(), util::ContractViolation);
  if (request.size() > 1) {
    EXPECT_THROW(agg->stream_replay(request[1], updates_[request[1]]),
                 util::ContractViolation);
  }
  // The rejected calls left the stream intact: serving the replays in
  // order still finishes the round.
  for (const std::size_t i : request) agg->stream_replay(i, updates_[i]);
  EXPECT_EQ(agg->finish_stream().model.size(), kDim);
}

INSTANTIATE_TEST_SUITE_P(StreamingRules, StreamProtocolMisuse,
                         ::testing::Values("fedavg", "mkrum", "median",
                                           "trmean"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(StreamProtocol, BatchOnlyRuleRejectsBeginStream) {
  AggregatorOptions options;
  options.num_byzantine = 2;
  options.sketch_dim = 8;
  auto bulyan = make_aggregator("bulyan", options);
  ASSERT_FALSE(bulyan->supports_streaming());
  EXPECT_THROW(bulyan->begin_stream(4, std::vector<std::int64_t>(9, 1)),
               util::ContractViolation);
}

}  // namespace
}  // namespace zka::defense
