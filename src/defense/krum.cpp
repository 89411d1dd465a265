#include "defense/krum.h"

#include <algorithm>

#include "defense/distance.h"
#include "defense/fedavg.h"
#include "tensor/reduce.h"
#include "util/check.h"
#include "util/prof.h"

namespace zka::defense {

std::vector<std::size_t> MultiKrum::select(
    std::span<const UpdateView> updates) const {
  const std::size_t n = updates.size();
  ZKA_CHECK(n > 0, "MultiKrum::select: no updates");
  // f/n feasibility: the scores are meaningless once every update could be
  // Byzantine. (The full Blanchard bound n > 2f + 2 is deliberately not
  // enforced; small rounds degrade to fewer neighbors below.)
  ZKA_CHECK(n == 1 || f_ < n,
            "MultiKrum: assumed Byzantine count f=%zu must be < n=%zu", f_, n);
  const std::size_t m = selection_size(n);
  if (n == 1) return {0};
  const std::size_t dim = updates.front().size();

  if (sketch_.enabled_for(n, dim)) {
    std::vector<double> sum_all;
    const SketchedSelectionPlan plan = plan_sketched(updates, sum_all);
    return recheck_selection(
        plan, sum_all, [&](std::size_t i) { return updates[i]; }, dim);
  }

  // Krum needs n - f - 2 >= 1 neighbors; degrade gracefully on tiny rounds.
  const std::size_t neighbors = n > f_ + 2 ? n - f_ - 2 : 1;

  const KrumScorer scorer(pairwise_sq_distances(updates));
  std::vector<bool> excluded(n, false);
  std::vector<std::size_t> selected;

  if (!iterative_) {
    // One-shot scoring: rank all updates, keep the m lowest scores.
    std::vector<std::pair<double, std::size_t>> ranked;
    ranked.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ranked.emplace_back(scorer.score(i, neighbors, excluded), i);
    }
    std::sort(ranked.begin(), ranked.end(), ranked_less);
    selected.reserve(m);
    for (std::size_t k = 0; k < m; ++k) selected.push_back(ranked[k].second);
  } else {
    selected = successive_krum_picks(scorer, m, neighbors, excluded);
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

std::vector<std::size_t> MultiKrum::select(
    const std::vector<Update>& updates) const {
  const std::vector<UpdateView> views = as_views(updates);
  return select(std::span<const UpdateView>(views));
}

SketchedSelectionPlan MultiKrum::plan_sketched(
    std::span<const UpdateView> updates, std::vector<double>& sum_all) const {
  const std::size_t n = updates.size();
  const std::size_t dim = updates.front().size();
  const std::size_t m = selection_size(n);
  const tensor::JlSketch sketch(dim, sketch_.sketch_dim, kSketchSeed);
  const std::vector<float> rows = project_rows(sketch, updates);
  // Index-ascending Σ of all updates — the exact accumulation the streaming
  // path folds per stream_update, which is what makes the two paths
  // bitwise-identical.
  sum_all.assign(dim, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    tensor::axpy(1.0, updates[i], sum_all);
  }
  return plan_sketched_selection(
      sketched_order(rows, n, sketch_.sketch_dim, f_, m, iterative_), n, f_, m,
      sketch_.recheck_band);
}

AggregationResult MultiKrum::do_aggregate(std::span<const UpdateView> updates,
                                       std::span<const std::int64_t> weights) {
  ZKA_PROF_SCOPE("aggregate/mkrum");
  validate_updates(updates, weights);
  const std::size_t n = updates.size();
  const std::size_t dim = updates.front().size();
  ZKA_CHECK(n == 1 || f_ < n,
            "MultiKrum: assumed Byzantine count f=%zu must be < n=%zu", f_, n);
  if (n > 1 && sketch_.enabled_for(n, dim)) {
    ZKA_PROF_SCOPE("aggregate/mkrum_sketch");
    std::vector<double> sum_all;
    const SketchedSelectionPlan plan = plan_sketched(updates, sum_all);
    return finish_sketched_selection(
        plan, sum_all, [&](std::size_t i) { return updates[i]; }, dim);
  }
  AggregationResult result;
  result.selected = select(updates);
  result.model = mean_of(updates, result.selected);
  return result;
}

void MultiKrum::do_begin_stream(std::size_t dim,
                                std::span<const std::int64_t> weights) {
  const std::size_t n = weights.size();
  ZKA_CHECK(n == 1 || f_ < n,
            "MultiKrum: assumed Byzantine count f=%zu must be < n=%zu", f_, n);
  stream_dim_ = dim;
  stream_weights_.assign(weights.begin(), weights.end());
  stream_buffered_ = n == 1 || !sketch_.enabled_for(n, dim);
  if (stream_buffered_) {
    stream_buffer_.clear();
    stream_buffer_.reserve(n);
    return;
  }
  stream_sketch_.emplace(dim, sketch_.sketch_dim, kSketchSeed);
  stream_rows_.resize(n * sketch_.sketch_dim);
  stream_scratch_.resize(sketch_.sketch_dim);
  stream_sum_.assign(dim, 0.0);
}

void MultiKrum::do_stream_update(std::size_t slot, UpdateView update) {
  ZKA_PROF_SCOPE("aggregate/mkrum_stream");
  if (stream_buffered_) {
    stream_buffer_.emplace_back(update.begin(), update.end());
  } else {
    stream_sketch_->project(
        update, stream_scratch_,
        std::span<float>(stream_rows_.data() + slot * sketch_.sketch_dim,
                         sketch_.sketch_dim));
    tensor::axpy(1.0, update, std::span<double>(stream_sum_));
  }
}

std::span<const std::size_t> MultiKrum::do_stream_replay_request() {
  if (stream_buffered_) return {};
  const std::size_t n = stream_weights_.size();
  stream_plan_ = plan_sketched_selection(
      sketched_order(stream_rows_, n, sketch_.sketch_dim, f_,
                     selection_size(n), /*iterative=*/false),
      n, f_, selection_size(n), sketch_.recheck_band);
  stream_replayed_.clear();
  stream_replayed_.reserve(stream_plan_.replay.size() * stream_dim_);
  return stream_plan_.replay;
}

void MultiKrum::do_stream_replay(std::size_t index, UpdateView update) {
  // Replays arrive in request order, so row k of stream_replayed_ is
  // replay[k].
  (void)index;
  stream_replayed_.insert(stream_replayed_.end(), update.begin(), update.end());
}

AggregationResult MultiKrum::do_finish_stream() {
  if (stream_buffered_) {
    const std::vector<UpdateView> views = as_views(stream_buffer_);
    AggregationResult result =
        do_aggregate(std::span<const UpdateView>(views),
                     std::span<const std::int64_t>(stream_weights_));
    reset_stream();
    return result;
  }
  const auto full_row = [&](std::size_t i) -> UpdateView {
    const auto it = std::lower_bound(stream_plan_.replay.begin(),
                                     stream_plan_.replay.end(), i);
    ZKA_CHECK(it != stream_plan_.replay.end() && *it == i,
              "%s: full row %zu was never replayed", name().c_str(), i);
    const std::size_t pos =
        static_cast<std::size_t>(it - stream_plan_.replay.begin());
    return UpdateView(stream_replayed_.data() + pos * stream_dim_, stream_dim_);
  };
  AggregationResult result = finish_sketched_selection(
      stream_plan_, stream_sum_, full_row, stream_dim_);
  reset_stream();
  return result;
}

void MultiKrum::reset_stream() {
  stream_sketch_.reset();
  // clear() only: capacity stays with the aggregator so the next round's
  // begin_stream reuses it instead of reallocating inside the round loop.
  stream_weights_.clear();
  stream_buffer_.clear();
  stream_replayed_.clear();
}

}  // namespace zka::defense
