#include "defense/sanitize.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace zka::defense::sanitize {

namespace {

bool all_finite(std::span<const float> row) {
  for (const float v : row) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

std::span<const std::span<const float>> Ingress::admit_updates(
    std::span<const std::span<const float>> updates) {
  if (!options_.enabled || updates.empty()) return updates;
  bool any_dirty = false;
  for (const auto row : updates) {
    if (!all_finite(row)) {
      any_dirty = true;
      break;
    }
  }
  if (!any_dirty) return updates;  // bitwise pass-through, no copies
  view_scratch_.clear();
  view_scratch_.reserve(updates.size());
  if (row_scratch_.size() < updates.size()) {
    row_scratch_.resize(updates.size());
  }
  std::size_t next_scratch = 0;
  for (const auto row : updates) {
    if (all_finite(row)) {
      view_scratch_.push_back(row);
      continue;
    }
    std::vector<float>& copy = row_scratch_[next_scratch++];
    copy.assign(row.begin(), row.end());
    for (float& v : copy) {
      if (!std::isfinite(v)) {
        v = 0.0f;
        ++zeroed_;
      }
    }
    view_scratch_.emplace_back(copy);
  }
  return view_scratch_;
}

std::span<const float> Ingress::admit_update(std::span<const float> update) {
  if (!options_.enabled || all_finite(update)) return update;
  stream_scratch_.assign(update.begin(), update.end());
  for (float& v : stream_scratch_) {
    if (!std::isfinite(v)) {
      v = 0.0f;
      ++zeroed_;
    }
  }
  return stream_scratch_;
}

std::span<const std::int64_t> Ingress::admit_weights(
    std::span<const std::int64_t> weights) {
  if (!options_.enabled || weights.empty()) return weights;
  median_scratch_.assign(weights.begin(), weights.end());
  const std::size_t mid = median_scratch_.size() / 2;
  std::nth_element(median_scratch_.begin(), median_scratch_.begin() + mid,
                   median_scratch_.end());
  const std::int64_t median = median_scratch_[mid];
  if (median <= 0) return weights;  // no meaningful scale to clamp against
  const double cap_real = static_cast<double>(median) * kWeightCapRatio;
  const std::int64_t cap =
      cap_real >= 9.2e18 ? std::numeric_limits<std::int64_t>::max()
                         : static_cast<std::int64_t>(cap_real);
  bool any_over = false;
  for (const std::int64_t w : weights) {
    if (w > cap) {
      any_over = true;
      break;
    }
  }
  if (!any_over) return weights;  // pass-through
  weight_scratch_.assign(weights.begin(), weights.end());
  for (std::int64_t& w : weight_scratch_) {
    if (w > cap) {
      w = cap;
      ++clamped_;
    }
  }
  return weight_scratch_;
}

}  // namespace zka::defense::sanitize
