#include "defense/aggregator.h"

#include "util/check.h"

namespace zka::defense {

AggregationResult Aggregator::aggregate(
    std::span<const UpdateView> updates,
    std::span<const std::int64_t> weights) {
  ZKA_CHECK(weights.empty() || weights.size() == updates.size(),
            "aggregate: %zu weights for %zu updates", weights.size(),
            updates.size());
  return do_aggregate(ingress_.admit_updates(updates),
                      ingress_.admit_weights(weights));
}

// zka-lint: allow(A4) -- pure delegation; the span overload sanitizes and
// the do_aggregate hook validates
AggregationResult Aggregator::aggregate(
    const std::vector<Update>& updates,
    const std::vector<std::int64_t>& weights) {
  const std::vector<UpdateView> views = as_views(updates);
  return aggregate(std::span<const UpdateView>(views),
                   std::span<const std::int64_t>(weights));
}

void Aggregator::begin_stream(std::size_t dim,
                              std::span<const std::int64_t> weights) {
  ZKA_CHECK(supports_streaming(), "%s does not support streaming ingestion",
            name().c_str());
  ZKA_CHECK(!stream_open_, "%s: begin_stream during an open stream",
            name().c_str());
  ZKA_CHECK(dim > 0, "%s: empty update dimension", name().c_str());
  ZKA_CHECK(!weights.empty(), "%s: no weights for streaming round",
            name().c_str());
  const std::span<const std::int64_t> admitted =
      ingress_.admit_weights(weights);
  for (const std::int64_t w : admitted) {
    ZKA_CHECK(w >= 0, "%s: negative weight %lld", name().c_str(),
              static_cast<long long>(w));
  }
  do_begin_stream(dim, admitted);
  stream_open_ = true;
  stream_dim_ = dim;
  stream_n_ = admitted.size();
  stream_next_ = 0;
  replay_requested_ = false;
  replay_ = {};
  replay_next_ = 0;
}

void Aggregator::stream_update(UpdateView update) {
  ZKA_CHECK(stream_open_, "%s: stream_update without begin_stream",
            name().c_str());
  ZKA_CHECK(stream_next_ < stream_n_,
            "%s: more updates streamed than weights announced (%zu)",
            name().c_str(), stream_n_);
  ZKA_CHECK(update.size() == stream_dim_,
            "%s: streamed update has %zu coordinates, expected %zu",
            name().c_str(), update.size(), stream_dim_);
  do_stream_update(stream_next_, ingress_.admit_update(update));
  ++stream_next_;
}

std::span<const std::size_t> Aggregator::stream_replay_request() {
  ZKA_CHECK(stream_open_, "%s: stream_replay_request without begin_stream",
            name().c_str());
  ZKA_CHECK(stream_next_ == stream_n_,
            "%s: %zu of %zu announced updates streamed", name().c_str(),
            stream_next_, stream_n_);
  if (!replay_requested_) {
    replay_ = do_stream_replay_request();
    replay_requested_ = true;
  }
  return replay_;
}

void Aggregator::stream_replay(std::size_t index, UpdateView update) {
  ZKA_CHECK(stream_open_ && replay_requested_,
            "%s: stream_replay before stream_replay_request", name().c_str());
  ZKA_CHECK(replay_next_ < replay_.size(),
            "%s: more replays than requested (%zu)", name().c_str(),
            replay_.size());
  ZKA_CHECK(index == replay_[replay_next_],
            "%s: replay %zu out of order, expected %zu", name().c_str(), index,
            replay_[replay_next_]);
  ZKA_CHECK(update.size() == stream_dim_,
            "%s: replayed update has %zu coordinates, expected %zu",
            name().c_str(), update.size(), stream_dim_);
  // Same admission as pass 1: sanitization is deterministic, so the rule
  // sees bit-identical rows across the two passes.
  do_stream_replay(index, ingress_.admit_update(update));
  ++replay_next_;
}

AggregationResult Aggregator::finish_stream() {
  ZKA_CHECK(stream_open_, "%s: finish_stream without begin_stream",
            name().c_str());
  // Also asks for the replay set when the caller never did: a rule that
  // wants replays then fails the served-count check below.
  const std::size_t requested = stream_replay_request().size();
  ZKA_CHECK(replay_next_ == requested,
            "%s: %zu of %zu requested replays served", name().c_str(),
            replay_next_, requested);
  stream_open_ = false;
  return do_finish_stream();
}

void Aggregator::do_begin_stream(std::size_t dim,
                                 std::span<const std::int64_t> weights) {
  (void)dim;
  (void)weights;
  ZKA_CHECK(false, "%s does not support streaming ingestion", name().c_str());
}

void Aggregator::do_stream_update(std::size_t slot, UpdateView update) {
  (void)slot;
  (void)update;
  ZKA_CHECK(false, "%s does not support streaming ingestion", name().c_str());
}

void Aggregator::do_stream_replay(std::size_t index, UpdateView update) {
  (void)index;
  (void)update;
  ZKA_CHECK(false, "%s never requests streaming replays", name().c_str());
}

AggregationResult Aggregator::do_finish_stream() {
  ZKA_CHECK(false, "%s does not support streaming ingestion", name().c_str());
  return {};
}

std::vector<UpdateView> as_views(const std::vector<Update>& updates) {
  std::vector<UpdateView> views;
  views.reserve(updates.size());
  for (const Update& u : updates) views.emplace_back(u);
  return views;
}

void validate_updates(std::span<const UpdateView> updates,
                      std::span<const std::int64_t> weights) {
  ZKA_CHECK(!updates.empty(), "aggregate: no updates submitted");
  ZKA_CHECK(weights.size() == updates.size(),
            "aggregate: %zu weights for %zu updates", weights.size(),
            updates.size());
  const std::size_t dim = updates.front().size();
  ZKA_CHECK(dim > 0, "aggregate: empty update");
  for (std::size_t k = 0; k < updates.size(); ++k) {
    const UpdateView u = updates[k];
    ZKA_CHECK(u.size() == dim,
              "aggregate: update %zu has %zu coordinates, expected %zu", k,
              u.size(), dim);
  }
  // No per-value finiteness loop here: NaN/Inf hygiene is the ingress
  // layer's job (defense/sanitize.h), enforced by the Aggregator entry
  // points before any rule runs. Keeping it out of the shape contract is
  // what lets sanitize-off runs reproduce the undefended server.
  for (const std::int64_t w : weights) {
    ZKA_CHECK(w >= 0, "aggregate: negative weight %lld",
              static_cast<long long>(w));
  }
}

}  // namespace zka::defense
