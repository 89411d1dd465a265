// Bitwise thread-count invariance of every aggregator.
//
// The parallel helpers under the defenses (weighted_sum, the Gram packing,
// the coordinate-block transpose) split work along fixed block grids, so
// the aggregate must be bitwise identical no matter how many workers the
// pool has. Two enforcement layers:
//   1. In-process: each aggregator runs with kernel parallelism enabled
//      and again with it forced off (pure serial reference); models must
//      be bitwise equal and selections identical.
//   2. Cross-process: CMake registers this binary three times with
//      ZKA_THREADS = 1, 4 and 8 (the pool reads the variable once at
//      startup), so layer 1's "parallel" leg itself runs under three
//      different worker counts, and any divergence fails one of the runs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "defense/aggregator.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace zka::defense {
namespace {

// Big enough to cross every parallel threshold (n*dim >= 2^18, dim spans
// many coordinate blocks, Gram fast path active).
constexpr std::size_t kNumClients = 12;
constexpr std::size_t kDim = 25000;

std::vector<Update> round_updates(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Update> updates;
  for (std::size_t k = 0; k + 2 < kNumClients; ++k) {
    Update u(kDim);
    for (auto& x : u) x = static_cast<float>(rng.normal(0.0, 0.5));
    updates.push_back(std::move(u));
  }
  // Two colluding near-duplicates so the distance correction pass and the
  // Sybil logic participate.
  Update colluder(kDim);
  for (auto& x : colluder) x = static_cast<float>(rng.normal(1.0, 0.5));
  Update near_copy = colluder;
  for (auto& x : near_copy) x += static_cast<float>(rng.normal(0.0, 1e-5));
  updates.push_back(std::move(colluder));
  updates.push_back(std::move(near_copy));
  return updates;
}

class DeterminismTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismTest, ParallelMatchesSerialBitwise) {
  const std::vector<Update> updates = round_updates(2024);
  const std::vector<std::int64_t> weights(kNumClients, 3);

  // Fresh aggregator per mode: stateful rules (CenteredClip's center, DnC's
  // RNG stream) must see identical histories in both legs.
  tensor::set_kernel_parallelism(true);
  const auto parallel_agg = make_aggregator(GetParam(), {.num_byzantine = 2});
  const AggregationResult parallel = parallel_agg->aggregate(updates, weights);

  tensor::set_kernel_parallelism(false);
  const auto serial_agg = make_aggregator(GetParam(), {.num_byzantine = 2});
  const AggregationResult serial = serial_agg->aggregate(updates, weights);
  tensor::set_kernel_parallelism(true);

  EXPECT_EQ(parallel.selected, serial.selected);
  ASSERT_EQ(parallel.model.size(), serial.model.size());
  for (std::size_t i = 0; i < parallel.model.size(); ++i) {
    ASSERT_EQ(parallel.model[i], serial.model[i])
        << GetParam() << " diverges at coordinate " << i << " (ZKA_THREADS="
        << (std::getenv("ZKA_THREADS") ? std::getenv("ZKA_THREADS") : "unset")
        << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregators, DeterminismTest,
    ::testing::Values("fedavg", "median", "trmean", "krum", "mkrum", "bulyan",
                      "foolsgold", "normclip", "geomedian", "centeredclip",
                      "dnc"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// The sketched fast path (JL projection kernel, blocked Gram scorer,
// exact band re-check) must hold the same invariance: the block grids it
// parallelizes over are pure functions of (n, k), never of the worker
// count. kDim = 25000 >> 2 * sketch_dim, so the sketch path is active.
TEST(SketchedDeterminism, SketchedMkrumParallelMatchesSerialBitwise) {
  const std::vector<Update> updates = round_updates(2025);
  const std::vector<std::int64_t> weights(kNumClients, 3);
  AggregatorOptions options;
  options.num_byzantine = 2;
  options.sketch_dim = 256;

  tensor::set_kernel_parallelism(true);
  const AggregationResult parallel =
      make_aggregator("mkrum", options)->aggregate(updates, weights);
  tensor::set_kernel_parallelism(false);
  const AggregationResult serial =
      make_aggregator("mkrum", options)->aggregate(updates, weights);
  tensor::set_kernel_parallelism(true);

  EXPECT_EQ(parallel.selected, serial.selected);
  ASSERT_EQ(parallel.model.size(), serial.model.size());
  for (std::size_t i = 0; i < parallel.model.size(); ++i) {
    ASSERT_EQ(parallel.model[i], serial.model[i])
        << "sketched mkrum diverges at coordinate " << i;
  }
}

// Tree aggregation (approximate streaming median/trmean) promises
// bitwise determinism for a fixed arrival order and budget — including
// across worker counts, since its per-node reducers run on fixed
// coordinate blocks.
class TreeStreamDeterminismTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(TreeStreamDeterminismTest, StreamingParallelMatchesSerialBitwise) {
  const std::vector<Update> updates = round_updates(2026);
  const std::vector<std::int64_t> weights(kNumClients, 3);
  AggregatorOptions options;
  options.num_byzantine = 2;
  // A wave of 5 forces a multi-level tree (12 arrivals, 3+ nodes).
  options.memory_budget_bytes = 5 * kDim * sizeof(float);

  const auto stream_round = [&] {
    auto agg = make_aggregator(GetParam(), options);
    agg->begin_stream(kDim, weights);
    for (const auto& u : updates) agg->stream_update(u);
    return agg->finish_stream();
  };

  tensor::set_kernel_parallelism(true);
  const AggregationResult parallel = stream_round();
  tensor::set_kernel_parallelism(false);
  const AggregationResult serial = stream_round();
  tensor::set_kernel_parallelism(true);

  ASSERT_EQ(parallel.model.size(), serial.model.size());
  for (std::size_t i = 0; i < parallel.model.size(); ++i) {
    ASSERT_EQ(parallel.model[i], serial.model[i])
        << GetParam() << " tree streaming diverges at coordinate " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(TreeRules, TreeStreamDeterminismTest,
                         ::testing::Values("median", "trmean"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace zka::defense
