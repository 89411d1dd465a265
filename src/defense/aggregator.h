// Robust aggregation (defense) interface.
//
// Updates are flat model-parameter vectors (the FL wire format from
// nn::get_flat_params). Selection-style defenses (mKrum, Bulyan, FoolsGold)
// also report *which* updates contributed, which is what the paper's DPR
// metric (Eq. 5) is computed from; statistic defenses (Median, TRmean)
// blend coordinates from all updates and report no selection.
//
// Aggregators consume updates as read-only views (UpdateView). The server
// round loop hands out spans over client buffers without copying — a
// crafted malicious update submitted by many sybils is one buffer viewed
// many times, not many deep copies. Owning-vector callers use the
// convenience overload, which builds the view list and forwards.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "defense/sanitize.h"

namespace zka::defense {

using Update = std::vector<float>;

/// Non-owning read-only view of one client's flat update. The pointee must
/// outlive the aggregate() call (aggregators never retain views).
using UpdateView = std::span<const float>;

struct AggregationResult {
  Update model;
  /// Indices (into the submitted update list) of updates that were selected
  /// for aggregation. Empty for statistic defenses that use all updates.
  std::vector<std::size_t> selected;
};

class Aggregator {
 public:
  virtual ~Aggregator() = default;

  // The client-facing entry points (aggregate and the streaming protocol
  // below) are non-virtual template methods: they run the ingress
  // sanitize layer (defense/sanitize.h — finite-check every update row,
  // clamp outlier reported weights) and then dispatch to the protected
  // do_* hooks the rules override. Rules therefore consume sanitized
  // input by construction; set_sanitize({.enabled = false}) restores the
  // paper-faithful undefended server bitwise.

  /// Aggregates the round's updates; weights[i] is the sample count of
  /// client i (used by weighted FedAvg; robust rules may ignore it).
  /// Requires at least one update, all of equal size, and exactly one
  /// non-negative weight per update.
  AggregationResult aggregate(std::span<const UpdateView> updates,
                              std::span<const std::int64_t> weights);

  /// Convenience overload for owning vectors: builds the view list and
  /// forwards to the span version.
  AggregationResult aggregate(const std::vector<Update>& updates,
                              const std::vector<std::int64_t>& weights);

  /// Replaces the ingress sanitize configuration (takes effect from the
  /// next entry-point call; never mid-stream).
  void set_sanitize(const sanitize::Options& options) {
    ingress_ = sanitize::Ingress(options);
  }

  /// The ingress layer, for tests and telemetry (zeroed/clamped counts).
  const sanitize::Ingress& ingress() const noexcept { return ingress_; }

  /// Called by the server before collecting a round's updates, with the
  /// global model it just broadcast. Most rules ignore it; defenses that
  /// need server-side context (e.g. FLTrust trains a reference update on
  /// its root dataset) override it.
  virtual void begin_round(std::span<const float> global_model,
                           std::int64_t round) {
    (void)global_model;
    (void)round;
  }

  /// True if the defense *selects* updates (DPR is only defined then).
  virtual bool selects_clients() const noexcept = 0;

  virtual std::string name() const = 0;

  // ── Streaming ingestion (production-scale rounds) ────────────────────
  //
  // Rules that can fold updates one at a time — without ever holding the
  // round's full update matrix — opt in by overriding supports_streaming()
  // and the do_* stream hooks below. The server then drives
  //
  //   begin_stream(dim, weights);                       // weights up front
  //   stream_update(u_0); ... stream_update(u_{n-1});   // submission order
  //   for i in stream_replay_request():                 // ascending
  //     stream_replay(i, u_i);                          // same bits as pass 1
  //   finish_stream();
  //
  // and may free each update buffer as soon as its stream_update returns,
  // bounding server memory by the training-wave size instead of n. The
  // replay pass is the bounded second look behind the sketched selection
  // rules (defense/sketch.h): ranking happens on O(k) sketches, and only
  // the O(f + band) updates near the decision boundary come back at full
  // dimension. Client training is a pure function of (global model, seed),
  // so the server re-derives a replayed update instead of storing it.
  //
  // The base class enforces the protocol; rules implement folds. The
  // public entry points are non-virtual and own the stream state (open or
  // closed, dim, the announced count n, the next slot, the cached replay
  // request and its cursor), so every misuse — a second begin_stream, a
  // row with no open stream, an extra row, a wrong dimension, an
  // unrequested or out-of-order replay, an early finish_stream, unserved
  // replays, or a batch-only rule — raises util::ContractViolation before
  // any hook runs. The hooks see only well-formed sequences: do_stream_update
  // is handed its slot in submission order, do_stream_replay_request runs
  // at most once per stream and only after all n rows, and
  // do_finish_stream only once every requested replay is served.
  //
  // Contract: streaming produces a bitwise-identical model to aggregate()
  // given the same updates in the same order whenever streaming_exact() is
  // true — FedAvg folds with the exact per-coordinate accumulation order
  // of tensor::weighted_sum, and the sketched Krum family computes the
  // buffered path through the very same plan/replay sums. Rules that
  // stream through a documented approximation (hierarchical tree
  // median/trimmed-mean under a memory budget, statistic.h) return false
  // from streaming_exact() and remain bitwise deterministic for a fixed
  // arrival order and budget — just not equal to their batch rule unless
  // the budget admits a single wave. Rules that truly need all n updates
  // keep supports_streaming() false; for them the server's floor is
  // n = clients_per_round buffers.

  /// True when this rule implements the streaming hooks.
  virtual bool supports_streaming() const noexcept { return false; }

  /// True when finish_stream() is guaranteed bitwise-identical to
  /// aggregate() on the same updates in the same order. Approximate
  /// streaming rules (tree median/trmean) override to false and document
  /// their agreement bounds.
  virtual bool streaming_exact() const noexcept { return true; }

  /// Starts a streaming round: `dim` coordinates per update, one weight
  /// per forthcoming stream_update call, in call order.
  void begin_stream(std::size_t dim, std::span<const std::int64_t> weights);

  /// Folds the next update (submission order). The view need only stay
  /// valid for the duration of the call.
  void stream_update(UpdateView update);

  /// After the last stream_update: the ascending index set (into the
  /// streamed order) this rule needs replayed at full dimension before
  /// finish_stream(). Computed once per stream; the span stays valid
  /// until finish_stream() returns.
  std::span<const std::size_t> stream_replay_request();

  /// Replays update `index` (the next unserved entry of
  /// stream_replay_request()) with exactly the bits it had in the first
  /// pass — sanitization is deterministic, so re-admitting the original
  /// bytes reproduces the pass-1 row exactly.
  void stream_replay(std::size_t index, UpdateView update);

  /// Finishes the round and returns the aggregate, exactly as aggregate()
  /// would have when streaming_exact(). Requires one stream_update per
  /// begin_stream weight, plus every requested replay.
  AggregationResult finish_stream();

 protected:
  // Per-rule implementations, called with sanitized input. do_aggregate
  // must still establish its own contract (validate_updates / ZKA_CHECK):
  // sanitization normalizes values, it does not prove shapes. The stream
  // hooks get their shape contract from the wrappers above.
  virtual AggregationResult do_aggregate(
      std::span<const UpdateView> updates,
      std::span<const std::int64_t> weights) = 0;
  virtual void do_begin_stream(std::size_t dim,
                               std::span<const std::int64_t> weights);
  virtual void do_stream_update(std::size_t slot, UpdateView update);
  virtual std::span<const std::size_t> do_stream_replay_request() {
    return {};
  }
  virtual void do_stream_replay(std::size_t index, UpdateView update);
  virtual AggregationResult do_finish_stream();

 private:
  sanitize::Ingress ingress_;

  // Streaming protocol state (see the contract above).
  bool stream_open_ = false;
  std::size_t stream_dim_ = 0;
  std::size_t stream_n_ = 0;
  std::size_t stream_next_ = 0;
  bool replay_requested_ = false;
  std::span<const std::size_t> replay_;
  std::size_t replay_next_ = 0;
};

/// View list over a vector of owning updates (no copies).
std::vector<UpdateView> as_views(const std::vector<Update>& updates);

/// Throws std::invalid_argument unless updates is non-empty and rectangular
/// and weights hold exactly one non-negative entry per update.
/// Value-level hygiene (finiteness) is the ingress layer's job
/// (defense/sanitize.h), not a shape contract — switching sanitization off
/// must reproduce the undefended server, not crash it.
void validate_updates(std::span<const UpdateView> updates,
                      std::span<const std::int64_t> weights);

/// Knobs of the named constructor below.
struct AggregatorOptions {
  /// The defense's assumed attacker bound f.
  std::size_t num_byzantine = 2;
  /// JL sketch dimension k for the distance-based rules (krum, mkrum,
  /// bulyan): rank on O(k) sketches, re-check the selection boundary
  /// exactly at full dimension (defense/sketch.h). 0 = exact path.
  std::size_t sketch_dim = 0;
  /// Server memory budget forwarded to budget-aware streaming rules
  /// (median/trmean size their tree-aggregation wave from it). 0 = keep
  /// the batch path.
  std::size_t memory_budget_bytes = 0;
};

/// Named construction for benches/CLIs: fedavg, median, trmean, krum,
/// mkrum, bulyan, foolsgold, normclip, geomedian, centeredclip, dnc. Every
/// rule starts with the default ingress sanitization (defense/sanitize.h);
/// set_sanitize({.enabled = false}) turns it off.
std::unique_ptr<Aggregator> make_aggregator(const std::string& name,
                                            const AggregatorOptions& options);

}  // namespace zka::defense
