#include "defense/fedavg.h"


#include "tensor/reduce.h"
#include "util/check.h"
#include "util/prof.h"

namespace zka::defense {

std::vector<double> fedavg_coefficients(
    std::span<const std::int64_t> weights) {
  double total = 0.0;
  for (const std::int64_t w : weights) total += static_cast<double>(w);
  std::vector<double> coeffs(weights.size());
  if (total <= 0.0) {
    // All-zero weights degenerate to the unweighted mean.
    for (auto& c : coeffs) c = 1.0 / static_cast<double>(weights.size());
  } else {
    for (std::size_t k = 0; k < weights.size(); ++k) {
      coeffs[k] = static_cast<double>(weights[k]) / total;
    }
  }
  return coeffs;
}

AggregationResult FedAvg::do_aggregate(std::span<const UpdateView> updates,
                                    std::span<const std::int64_t> weights) {
  ZKA_PROF_SCOPE("aggregate/fedavg");
  validate_updates(updates, weights);
  const std::size_t dim = updates.front().size();
  const std::vector<double> coeffs = fedavg_coefficients(weights);
  std::vector<double> acc(dim);
  tensor::weighted_sum(updates, coeffs, acc);
  AggregationResult result;
  result.model.resize(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    result.model[i] = static_cast<float>(acc[i]);
  }
  return result;
}

void FedAvg::do_begin_stream(std::size_t dim,
                          std::span<const std::int64_t> weights) {
  stream_coeffs_ = fedavg_coefficients(weights);
  stream_acc_.assign(dim, 0.0);
}

void FedAvg::do_stream_update(std::size_t slot, UpdateView update) {
  ZKA_PROF_SCOPE("aggregate/fedavg_stream");
  tensor::axpy(stream_coeffs_[slot], update, std::span<double>(stream_acc_));
}

AggregationResult FedAvg::do_finish_stream() {
  AggregationResult result;
  result.model.resize(stream_acc_.size());
  for (std::size_t i = 0; i < stream_acc_.size(); ++i) {
    result.model[i] = static_cast<float>(stream_acc_[i]);
  }
  stream_coeffs_.clear();
  // clear() only: the capacity stays with the aggregator so the next
  // round's begin_stream assign() reuses it instead of reallocating dim
  // doubles inside the round hot loop. The accumulator lives exactly as
  // long as the aggregator either way.
  stream_acc_.clear();
  return result;
}

Update mean_of(std::span<const UpdateView> updates,
               const std::vector<std::size_t>& subset) {
  ZKA_CHECK(!subset.empty(), "mean_of: empty subset");
  ZKA_CHECK(!updates.empty(), "mean_of: no updates");
  const std::size_t dim = updates.front().size();
  std::vector<UpdateView> rows;
  rows.reserve(subset.size());
  for (const std::size_t k : subset) {
    ZKA_CHECK(k < updates.size(), "mean_of: index %zu out of %zu updates", k,
              updates.size());
    rows.push_back(updates[k]);
  }
  const std::vector<double> ones(subset.size(), 1.0);
  std::vector<double> acc(dim);
  tensor::weighted_sum(rows, ones, acc);
  Update mean(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    mean[i] = static_cast<float>(acc[i] / static_cast<double>(subset.size()));
  }
  return mean;
}

}  // namespace zka::defense
