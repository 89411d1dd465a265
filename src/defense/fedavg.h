// FedAvg (McMahan et al.): sample-count-weighted mean. Not robust; this is
// the paper's attack-free reference aggregator.
#pragma once

#include "defense/aggregator.h"

namespace zka::defense {

class FedAvg : public Aggregator {
 public:
  AggregationResult do_aggregate(std::span<const UpdateView> updates,
                              std::span<const std::int64_t> weights) override;
  bool selects_clients() const noexcept override { return false; }
  std::string name() const override { return "FedAvg"; }

  /// A weighted mean folds one update at a time: the streaming path
  /// replays tensor::weighted_sum's exact per-coordinate accumulation
  /// order (coefficients fixed up front from the full weight list, one
  /// axpy per update in submission order), so it is bitwise identical to
  /// aggregate() while holding O(dim) server state instead of O(n·dim).
  bool supports_streaming() const noexcept override { return true; }
  void do_begin_stream(std::size_t dim,
                    std::span<const std::int64_t> weights) override;
  void do_stream_update(std::size_t slot, UpdateView update) override;
  AggregationResult do_finish_stream() override;

 private:
  std::vector<double> stream_coeffs_;
  std::vector<double> stream_acc_;
};

/// FedAvg mixing coefficients: weights normalized by their sum, or the
/// unweighted 1/n fallback when the total is zero. Shared by the batch and
/// streaming paths so they stay bit-identical by construction.
std::vector<double> fedavg_coefficients(std::span<const std::int64_t> weights);

/// Unweighted mean of the given updates (shared helper; mKrum and Bulyan
/// average their selected subsets with it).
Update mean_of(std::span<const UpdateView> updates,
               const std::vector<std::size_t>& subset);

}  // namespace zka::defense
