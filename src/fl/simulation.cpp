#include "fl/simulation.h"

#include <algorithm>
#include <numeric>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/metrics.h"
#include "util/check.h"
#include "util/prof.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace zka::fl {
namespace {

/// Median of a sample-count list (lower middle for even sizes); 1 when the
/// list is empty. Sorts `counts` in place — callers pass a scratch list —
/// so the round loop can reuse one buffer instead of allocating a by-value
/// copy every round. Used as the default attacker-reported FedAvg weight.
std::int64_t median_weight(std::vector<std::int64_t>& counts) {
  if (counts.empty()) return 1;
  std::sort(counts.begin(), counts.end());
  return counts[(counts.size() - 1) / 2];
}

}  // namespace

double SimulationResult::dpr() const noexcept {
  if (!defense_selects) return std::nan("");
  std::int64_t selected = 0;
  std::int64_t passed = 0;
  for (const RoundRecord& r : rounds) {
    selected += r.malicious_selected;
    passed += r.malicious_passed;
  }
  return defense_pass_rate(passed, selected);
}

double SimulationResult::benign_pass_rate() const noexcept {
  if (!defense_selects) return std::nan("");
  std::int64_t selected = 0;
  std::int64_t passed = 0;
  for (const RoundRecord& r : rounds) {
    selected += r.benign_selected;
    passed += r.benign_passed;
  }
  return defense_pass_rate(passed, selected);
}

Simulation::Simulation(SimulationConfig config)
    : config_(std::move(config)),
      factory_(models::task_model_factory(config_.task)) {
  const bool production = config_.population > 0;
  const std::int64_t population =
      production ? config_.population : config_.num_clients;
  ZKA_CHECK(config_.clients_per_round > 0 &&
                config_.clients_per_round <= population,
            "Simulation: clients_per_round %lld outside [1, %lld]",
            static_cast<long long>(config_.clients_per_round),
            static_cast<long long>(population));
  // The threat model caps adversarial control at 50% (Sec. III-A).
  ZKA_CHECK(config_.malicious_fraction >= 0.0 &&
                config_.malicious_fraction <= 0.5,
            "Simulation: malicious_fraction %g must be in [0, 0.5]",
            config_.malicious_fraction);

  util::Rng rng(config_.seed);
  train_ = data::make_synthetic_dataset(config_.task, config_.train_size,
                                        rng.split(0xda7a)());
  test_ = data::make_synthetic_dataset(config_.task, config_.test_size,
                                       rng.split(0x7e57)());

  util::Rng part_rng = rng.split(0x9a27);
  if (production) {
    const data::HashedShardSpec spec(train_.size(), population,
                                     config_.samples_per_client, part_rng());
    registry_.emplace(train_, spec, factory_, config_.client,
                      config_.eager_registry);
  } else {
    auto parts =
        config_.beta > 0.0
            ? data::dirichlet_partition(train_.labels, train_.spec.num_classes,
                                        config_.num_clients, config_.beta,
                                        part_rng)
            : data::iid_partition(train_.size(), config_.num_clients,
                                  part_rng);
    registry_.emplace(train_, std::move(parts), factory_, config_.client);
  }

  num_malicious_ = static_cast<std::int64_t>(
      config_.malicious_fraction * static_cast<double>(population));
  if (config_.malicious_rounding == MaliciousRounding::kAtLeastOne &&
      config_.malicious_fraction > 0.0 && num_malicious_ == 0) {
    num_malicious_ = 1;
  }
  defense::AggregatorOptions agg_options;
  agg_options.num_byzantine = config_.defense_f;
  agg_options.sketch_dim = config_.sketch_dim;
  agg_options.memory_budget_bytes = config_.memory_budget_bytes;
  aggregator_ = config_.custom_defense
                    ? config_.custom_defense()
                    : defense::make_aggregator(config_.defense, agg_options);
  ZKA_CHECK(aggregator_ != nullptr,
            "Simulation: custom_defense returned null");
}

void Simulation::train_client_(std::size_t c, std::int64_t round,
                               std::span<const float> global,
                               defense::Update& out) const {
  ZKA_PROF_SCOPE("client_train/one");
  const Client client = registry_->client(static_cast<std::int64_t>(c));
  const std::uint64_t seed = config_.seed * 0x9e3779b97f4a7c15ULL +
                             static_cast<std::uint64_t>(round) * 1315423911ULL +
                             static_cast<std::uint64_t>(client.id());
  out = client.train(global, seed);
}

data::Dataset Simulation::malicious_data() const {
  std::vector<std::int64_t> indices;
  for (std::int64_t c = 0; c < num_malicious_; ++c) {
    const auto shard = registry_->shard(c);
    indices.insert(indices.end(), shard.begin(), shard.end());
  }
  return train_.subset(indices);
}

SimulationResult Simulation::run(attack::Attack* attack) {
  util::Rng rng(config_.seed ^ 0xf00dULL);
  std::vector<float> global = nn::get_flat_params(*factory_(rng.split(2)()));
  std::vector<float> prev_global = global;

  SimulationResult result;
  result.defense_selects = aggregator_->selects_clients();
  result.rounds.reserve(static_cast<std::size_t>(config_.rounds));

  const std::int64_t population = registry_->population();
  const std::size_t update_bytes = global.size() * sizeof(float);
  // A malicious client is one the adversary controls (by convention the
  // lowest ids, which under uniform sampling is distribution-equivalent to
  // any other fixed subset). With num_malicious_ == 0 — e.g. a sub-1%
  // fraction floored away at small populations — an attack degrades to a
  // clean baseline run instead of throwing.
  const auto is_malicious_id = [&](std::size_t c) {
    return attack != nullptr &&
           static_cast<std::int64_t>(c) < num_malicious_;
  };

  // Round-loop working buffers, hoisted above the hot loop and reused via
  // clear()/resize(): every vector here is bounded by clients_per_round,
  // which is fixed for the run, so one reserve covers all rounds and the
  // loop body itself allocates nothing. The per-client Update buffers are
  // owned by train_client_ and the attack — the analyzer's hot-path
  // boundaries, tracked against ROADMAP item 3's round arena.
  const std::size_t round_k =
      static_cast<std::size_t>(config_.clients_per_round);
  std::vector<std::size_t> all_slots(round_k);  // pass 0 feeds every slot
  std::iota(all_slots.begin(), all_slots.end(), std::size_t{0});
  std::vector<bool> is_malicious;  // sampling-order flags (selection DPR)
  std::vector<std::int64_t> weights;
  std::vector<std::int64_t> median_scratch;
  std::vector<std::size_t> wave_benign;
  std::vector<defense::Update> wave_updates;
  std::vector<defense::UpdateView> updates;
  is_malicious.reserve(round_k);
  weights.reserve(round_k);
  median_scratch.reserve(round_k);
  wave_benign.reserve(round_k);
  wave_updates.reserve(round_k);
  updates.reserve(round_k);

  for (std::int64_t round = 0; round < config_.rounds; ++round) {
    ZKA_PROF_SCOPE("round");
    aggregator_->begin_round(global, round);
    util::Rng round_rng = rng.split(0x1000 + static_cast<std::uint64_t>(round));
    // Uniform client sampling without replacement: O(clients_per_round)
    // regardless of population (Floyd above Rng::kDenseSampleMax).
    const auto sampled = round_rng.sample_without_replacement(
        static_cast<std::size_t>(population),
        static_cast<std::size_t>(config_.clients_per_round));

    // Per-client FedAvg weights are client-reported sample counts: benign
    // clients report their true shard size (registry lookup, no
    // materialization); malicious clients report whatever the attack
    // chooses (Attack::reported_weight, defaulting to the benign median),
    // filled in by craft() — never a fabricated max(shard, 1).
    is_malicious.clear();
    weights.clear();
    median_scratch.clear();
    for (const std::size_t c : sampled) {
      const bool mal = is_malicious_id(c);
      is_malicious.push_back(mal);
      weights.push_back(
          mal ? 0 : registry_->num_samples(static_cast<std::int64_t>(c)));
      if (!mal) median_scratch.push_back(weights.back());
    }
    const std::size_t num_benign = median_scratch.size();
    const std::size_t num_malicious = sampled.size() - num_benign;
    const bool have_malicious = num_malicious > 0;
    const std::int64_t benign_median = median_weight(median_scratch);

    defense::Update malicious_update;
    const auto craft =
        [&](const std::vector<defense::Update>* round_benign) {
          ZKA_PROF_SCOPE("attack_craft");
          attack::AttackContext ctx;
          ctx.global_model = global;
          ctx.prev_global_model = prev_global;
          ctx.benign_updates =
              attack->needs_benign_updates() ? round_benign : nullptr;
          ctx.round = round;
          ctx.num_selected = config_.clients_per_round;
          ctx.num_malicious_selected =
              static_cast<std::int64_t>(num_malicious);
          ctx.learning_rate = config_.client.learning_rate;
          ctx.benign_median_weight = benign_median;
          malicious_update = attack->craft(ctx);
          ZKA_CHECK(malicious_update.size() == global.size(),
                    "%s crafted %zu params, model has %zu",
                    attack->name().c_str(), malicious_update.size(),
                    global.size());
          const std::int64_t malicious_weight = attack->reported_weight(ctx);
          ZKA_CHECK(malicious_weight >= 0,
                    "%s reported negative weight %lld",
                    attack->name().c_str(),
                    static_cast<long long>(malicious_weight));
          for (std::size_t i = 0; i < weights.size(); ++i) {
            if (is_malicious[i]) weights[i] = malicious_weight;
          }
        };

    // Streaming ingestion: with a fold-capable defense (and an attack that
    // does not demand the full benign update matrix) the round proceeds in
    // waves sized by the memory budget — train a wave, fold it, free it —
    // so the server never holds more than one wave of updates. Otherwise
    // the round is one buffered wave of all clients_per_round updates.
    const bool omniscient =
        attack != nullptr && attack->needs_benign_updates();
    const bool streaming = config_.memory_budget_bytes > 0 &&
                           aggregator_->supports_streaming() && !omniscient;
    std::size_t wave = sampled.size();
    if (streaming) {
      // The crafted buffer stays live across every wave, so it counts
      // against the budget alongside the wave's training slots. Peak live
      // bytes are therefore <= max(budget, 2 * update_bytes) — the floor
      // being one training slot plus the crafted update.
      const std::size_t capacity =
          config_.memory_budget_bytes / update_bytes;
      wave = std::clamp<std::size_t>(
          have_malicious && capacity > 1 ? capacity - 1 : capacity,
          std::size_t{1}, sampled.size());
    } else {
      // A budget below the buffered floor is a configuration error, not
      // something to paper over silently.
      ZKA_CHECK(
          config_.memory_budget_bytes == 0 ||
              config_.memory_budget_bytes >= sampled.size() * update_bytes,
          "Simulation: %s cannot stream, so the round needs %zu update "
          "bytes, above memory_budget_bytes %zu — raise the budget or use "
          "a streaming defense",
          aggregator_->name().c_str(), sampled.size() * update_bytes,
          config_.memory_budget_bytes);
    }

    // Data-free crafting sees the global models but no benign updates, so
    // it runs before any training; both are pure functions of their seeds,
    // so the order changes no bits. An omniscient attack crafts inside the
    // wave loop, once its single buffered wave has trained.
    if (have_malicious && !omniscient) craft(nullptr);
    if (streaming) aggregator_->begin_stream(global.size(), weights);

    // One wave loop for every mode: a wave trains its benign clients, then
    // submits its slots in order. Pass 0 submits every slot, in waves of
    // `wave` slots. Pass 1 (streaming only) replays the slots a sketched
    // defense asks back at full dimension for the exact re-check of its
    // selection boundary, in waves of `wave` benign clients. Training is a
    // pure function of (global model, seed) — the global has not advanced
    // yet — so re-training a benign client reproduces its pass-0 update
    // bit-for-bit, and sybils re-submit the one crafted buffer.
    std::size_t round_peak_bytes = 0;
    for (int pass = 0; pass < (streaming ? 2 : 1); ++pass) {
      const std::span<const std::size_t> slots =
          pass == 0 ? std::span<const std::size_t>(all_slots)
                    : aggregator_->stream_replay_request();
      for (std::size_t start = 0; start < slots.size();) {
        wave_benign.clear();
        std::size_t end = start;
        while (end < slots.size() &&
               (pass == 0 ? end - start : wave_benign.size()) < wave) {
          if (!is_malicious[slots[end]]) {
            wave_benign.push_back(sampled[slots[end]]);
          }
          ++end;
        }
        // Slots beyond the previous wave's size are fresh; retained slots
        // are overwritten by train_client_ before they are read.
        wave_updates.resize(wave_benign.size());
        {
          ZKA_PROF_SCOPE("client_train");
          util::global_thread_pool().parallel_for(
              wave_benign.size(), [&](std::size_t k) {
                train_client_(wave_benign[k], round, global, wave_updates[k]);
              });
        }
        round_peak_bytes = std::max(
            round_peak_bytes,
            (wave_updates.size() + (have_malicious ? 1 : 0)) * update_bytes);
        if (have_malicious && omniscient) craft(&wave_updates);

        // The wave's submissions in slot order, as views: every malicious
        // client shares the one crafted buffer instead of deep copies, and
        // benign updates stay in their training slots.
        updates.clear();
        std::size_t cursor = 0;
        for (std::size_t i = start; i < end; ++i) {
          updates.emplace_back(
              is_malicious[slots[i]]
                  ? defense::UpdateView(malicious_update)
                  : defense::UpdateView(wave_updates[cursor++]));
        }
        ZKA_DCHECK(cursor == wave_updates.size(),
                   "round %lld: wave submitted %zu of %zu benign updates",
                   static_cast<long long>(round), cursor, wave_updates.size());
        if (streaming) {
          ZKA_PROF_SCOPE("aggregate");
          for (std::size_t k = 0; k < updates.size(); ++k) {
            if (pass == 0) {
              aggregator_->stream_update(updates[k]);
            } else {
              aggregator_->stream_replay(slots[start + k], updates[k]);
            }
          }
        }
        start = end;
      }
    }
    defense::AggregationResult agg;
    {
      ZKA_PROF_SCOPE("aggregate");
      agg = streaming ? aggregator_->finish_stream()
                      : aggregator_->aggregate(updates, weights);
    }
    result.peak_update_bytes =
        std::max(result.peak_update_bytes, round_peak_bytes);
    prev_global = std::move(global);
    global = std::move(agg.model);

    RoundRecord record;
    record.round = round;
    record.malicious_selected = static_cast<std::int64_t>(num_malicious);
    record.benign_selected = static_cast<std::int64_t>(num_benign);
    if (aggregator_->selects_clients()) {
      for (const std::size_t idx : agg.selected) {
        if (is_malicious.at(idx)) ++record.malicious_passed;
        else ++record.benign_passed;
      }
    }
    if (config_.eval_every > 0 &&
        (round % config_.eval_every == 0 || round + 1 == config_.rounds)) {
      ZKA_PROF_SCOPE("eval");
      record.accuracy = evaluate_accuracy(factory_, global, test_);
      // max_accuracy starts NaN (nothing evaluated yet); std::max would
      // propagate the NaN forever, so seed it from the first evaluation.
      result.max_accuracy = std::isnan(result.max_accuracy)
                                ? record.accuracy
                                : std::max(result.max_accuracy,
                                           record.accuracy);
      result.final_accuracy = record.accuracy;
    }
    result.rounds.push_back(record);
    if (round_callback_) round_callback_(result.rounds.back());
  }
  result.final_model = std::move(global);
  return result;
}

}  // namespace zka::fl
