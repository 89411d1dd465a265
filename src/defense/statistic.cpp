#include "defense/statistic.h"

#include <algorithm>

#include "defense/coordwise.h"
#include "util/check.h"
#include "util/prof.h"

namespace zka::defense {
namespace {

// One tree node / one batch call of the median rule: per-coordinate
// median of the given rows.
Update median_of(std::span<const UpdateView> rows) {
  const std::size_t n = rows.size();
  const std::size_t dim = rows.front().size();
  Update out(dim);
  for_each_sorted_coordinate(
      rows, [&](std::size_t i, std::span<const float> column) {
        const std::size_t mid = n / 2;
        float v = column[mid];
        if (n % 2 == 0) v = (v + column[mid - 1]) / 2.0f;
        out[i] = v;
      });
  return out;
}

// One tree node / one batch call of the trimmed-mean rule. `trim` is
// clamped so at least one value per coordinate survives — tree nodes can
// be smaller than the batch feasibility bound.
Update trimmed_mean_of(std::span<const UpdateView> rows, std::size_t trim) {
  const std::size_t n = rows.size();
  const std::size_t dim = rows.front().size();
  const std::size_t t = std::min(trim, (n - 1) / 2);
  Update out(dim);
  for_each_sorted_coordinate(
      rows, [&](std::size_t i, std::span<const float> column) {
        double acc = 0.0;
        for (std::size_t k = t; k < n - t; ++k) {
          acc += static_cast<double>(column[k]);
        }
        out[i] = static_cast<float>(acc / static_cast<double>(n - 2 * t));
      });
  return out;
}

}  // namespace

std::size_t coord_tree_wave(std::size_t memory_budget_bytes, std::size_t dim,
                            std::size_t n) {
  const std::size_t update_bytes = dim * sizeof(float);
  const std::size_t fit =
      update_bytes > 0 ? memory_budget_bytes / update_bytes : n;
  return std::clamp<std::size_t>(fit, 2, std::max<std::size_t>(n, 2));
}

void CoordTreeStream::begin(std::size_t wave) {
  ZKA_CHECK(wave >= 2, "CoordTreeStream: wave %zu must be at least 2", wave);
  wave_ = wave;
  levels_.assign(1, {});
  levels_[0].reserve(wave_);
}

void CoordTreeStream::add(Update update, const Reduce& reduce) {
  levels_[0].push_back(std::move(update));
  for (std::size_t level = 0; levels_[level].size() == wave_; ++level) {
    const std::vector<UpdateView> views = as_views(levels_[level]);
    Update folded = reduce(std::span<const UpdateView>(views));
    levels_[level].clear();
    if (levels_.size() == level + 1) levels_.emplace_back();
    levels_[level + 1].push_back(std::move(folded));
  }
}

Update CoordTreeStream::finish(const Reduce& reduce) {
  Update carry;
  bool have_carry = false;
  for (std::vector<Update>& items : levels_) {
    // The carry from the level below covers the newest arrivals, so it
    // joins after the level's complete aggregates — arrival order.
    if (have_carry) items.push_back(std::move(carry));
    have_carry = false;
    if (items.empty()) continue;
    if (items.size() == 1) {
      carry = std::move(items[0]);
    } else {
      const std::vector<UpdateView> views = as_views(items);
      carry = reduce(std::span<const UpdateView>(views));
    }
    items.clear();
    have_carry = true;
  }
  ZKA_CHECK(have_carry, "CoordTreeStream: finish with no updates");
  levels_.clear();
  return carry;
}

AggregationResult Median::do_aggregate(std::span<const UpdateView> updates,
                                    std::span<const std::int64_t> weights) {
  ZKA_PROF_SCOPE("aggregate/median");
  validate_updates(updates, weights);
  AggregationResult result;
  result.model = median_of(updates);
  return result;
}

void Median::do_begin_stream(std::size_t dim,
                             std::span<const std::int64_t> weights) {
  tree_.begin(coord_tree_wave(budget_, dim, weights.size()));
}

void Median::do_stream_update(std::size_t slot, UpdateView update) {
  ZKA_PROF_SCOPE("aggregate/median_stream");
  (void)slot;
  tree_.add(Update(update.begin(), update.end()), median_of);
}

AggregationResult Median::do_finish_stream() {
  AggregationResult result;
  result.model = tree_.finish(median_of);
  return result;
}

AggregationResult TrimmedMean::do_aggregate(
    std::span<const UpdateView> updates,
    std::span<const std::int64_t> weights) {
  ZKA_PROF_SCOPE("aggregate/trmean");
  validate_updates(updates, weights);
  const std::size_t n = updates.size();
  ZKA_CHECK(n > 2 * trim_,
            "TrimmedMean: need more than 2*trim updates (n=%zu, trim=%zu)", n,
            trim_);
  AggregationResult result;
  result.model = trimmed_mean_of(updates, trim_);
  return result;
}

void TrimmedMean::do_begin_stream(std::size_t dim,
                                  std::span<const std::int64_t> weights) {
  const std::size_t n = weights.size();
  ZKA_CHECK(n > 2 * trim_,
            "TrimmedMean: need more than 2*trim updates (n=%zu, trim=%zu)", n,
            trim_);
  tree_.begin(coord_tree_wave(budget_, dim, n));
}

void TrimmedMean::do_stream_update(std::size_t slot, UpdateView update) {
  ZKA_PROF_SCOPE("aggregate/trmean_stream");
  (void)slot;
  tree_.add(Update(update.begin(), update.end()),
            [this](std::span<const UpdateView> rows) {
              return trimmed_mean_of(rows, trim_);
            });
}

AggregationResult TrimmedMean::do_finish_stream() {
  AggregationResult result;
  result.model = tree_.finish([this](std::span<const UpdateView> rows) {
    return trimmed_mean_of(rows, trim_);
  });
  return result;
}

}  // namespace zka::defense
