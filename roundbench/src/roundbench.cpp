// The roundbench program: one process runs one measurement of one workload.
//
//   roundbench --workload NAME --seed N --mode attempt|traced
//
// attempt: builds the workload's fl::Simulation and times its rounds
//          through Simulation::run with the profiler off.
// traced:  re-drives the same rounds from this file through the library's
//          public calls with a span around each call (trace.h), then
//          replays the classifier layer by layer. Its final model must
//          equal an attempt's bit for bit.
//
// Prints one JSON object of raw measurements on stdout; run.py launches the
// processes, checks the outputs and turns the JSON into metrics.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/zka_options.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "defense/aggregator.h"
#include "fl/experiment.h"
#include "fl/metrics.h"
#include "fl/simulation.h"
#include "models/models.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "tensor/ops.h"
#include "trace.h"
#include "util/prof.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace zka;
using roundbench::Meter;
using roundbench::now_ns;
using roundbench::ScopedSpan;

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

std::int64_t process_cpu_us() {
  const roundbench::Usage u = roundbench::process_usage();
  return u.user_us + u.sys_us;
}

// ── Workloads ─────────────────────────────────────────────────────────────

struct Workload {
  std::string name;
  fl::SimulationConfig config;
  fl::AttackKind attack = fl::AttackKind::kNone;
  core::ZkaOptions zka;
  std::uint64_t attack_seed = 0;
};

/// Rounds at the start of every attempt that count as set-up: the first
/// round pays for first-touch page faults and allocator growth.
constexpr std::int64_t kWarmupRounds = 1;

/// The paper-reproduction benches' ZKA settings for Fashion.
core::ZkaOptions fashion_zka_options() {
  core::ZkaOptions zka;
  zka.synthetic_size = 24;
  zka.synthesis_epochs = 4;
  zka.synthesis_lr = 0.05f;
  zka.latent_dim = 64;
  return zka;
}

/// Cross-device cohort over a lazy population of 10^4 devices, evaluated
/// on the first and last rounds only.
fl::SimulationConfig cross_device(std::int64_t clients_per_round,
                                  std::int64_t samples_per_client,
                                  std::int64_t rounds) {
  fl::SimulationConfig c;
  c.population = 10000;
  c.clients_per_round = clients_per_round;
  c.samples_per_client = samples_per_client;
  c.train_size = 8000;
  c.test_size = 1000;
  c.rounds = rounds;
  c.eval_every = rounds;
  return c;
}

/// `rounds` is warm-up + timed rounds. The cross-device counts size one
/// attempt at about 4.5 s on 4 vCPUs, so a 35 s run holds seven attempts,
/// and with them seven set-ups to take the median of. paper_zkag_mkrum
/// runs 40 timed rounds (about 7 s): after 20 its model has not converged
/// under the attack, and reordering float sums (another GEMM tier) moved
/// its final accuracy by up to 0.15, too much for an output check.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.zka = fashion_zka_options();
  fl::SimulationConfig& c = w.config;
  if (name == "paper_zkag_mkrum") {
    // Quick-scale Fashion Table-II cell: ZKA-G against exact mKrum.
    c.num_clients = 50;
    c.clients_per_round = 10;
    c.malicious_fraction = 0.2;
    c.beta = 0.5;
    c.train_size = 800;
    c.test_size = 300;
    c.defense = "mkrum";
    c.defense_f = 2;
    c.eval_every = 1;
    c.rounds = 1 + 40;
    w.attack = fl::AttackKind::kZkaG;
  } else if (name == "xdev_fedavg_stream") {
    // Cross-device FedAvg folding waves of updates under a 2 MiB budget.
    c = cross_device(150, 32, 1 + 6);
    c.malicious_fraction = 0.01;
    c.malicious_rounding = fl::MaliciousRounding::kFloor;
    c.defense = "fedavg";
    c.memory_budget_bytes = std::size_t{2} << 20;
    w.attack = fl::AttackKind::kZkaR;
  } else if (name == "xdev_bulyan_exact") {
    // A large cohort buffered in full for exact Bulyan.
    c = cross_device(200, 8, 1 + 9);
    c.malicious_fraction = 0.05;
    c.defense = "bulyan";
    c.defense_f = 20;
    w.attack = fl::AttackKind::kZkaR;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  c.task = models::Task::kFashion;
  c.seed = seed;
  w.attack_seed = seed * 0x2545f4914f6cdd1dULL + 0xa77acULL;
  return w;
}

// ── Output checks ─────────────────────────────────────────────────────────

/// The outputs every run is checked on.
struct Outcome {
  std::uint64_t model_hash = 0;
  bool finite = false;
  double accuracy = std::nan("");
  double dpr = std::nan("");
  std::size_t peak_update_bytes = 0;
};

std::uint64_t fnv1a(std::span<const float> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

Outcome outcome_of(const fl::SimulationResult& r) {
  Outcome o;
  o.model_hash = fnv1a(r.final_model);
  o.finite = std::all_of(r.final_model.begin(), r.final_model.end(),
                         [](float v) { return std::isfinite(v); });
  o.accuracy = r.final_accuracy;
  o.dpr = r.dpr();
  o.peak_update_bytes = r.peak_update_bytes;
  return o;
}

// ── Untraced attempts ─────────────────────────────────────────────────────

struct Attempt {
  // Set-up is construction + make_attack + the warm-up rounds; its
  // process CPU and steal ticks are kept to correct it like a round.
  double setup_s = 0.0;
  std::int64_t setup_cpu_us = 0;
  std::uint64_t setup_steal = 0;
  // Per round: wall time, process CPU, steal ticks, and
  // whether it evaluated accuracy.
  std::vector<std::uint64_t> round_ns;
  std::vector<std::int64_t> round_cpu_us;
  std::vector<std::uint64_t> round_steal;
  std::vector<int> eval;
  Outcome outcome;
  std::string error;  // what the attempt threw, if anything
};

Attempt run_attempt(const Workload& w) {
  Attempt a;
  const std::int64_t cpu0 = process_cpu_us();
  const std::uint64_t steal0 = roundbench::steal_ticks();
  const std::uint64_t t0 = now_ns();
  try {
    fl::Simulation sim(w.config);
    const auto attack = fl::make_attack(w.attack, sim, w.zka, w.attack_seed);
    std::uint64_t last = 0;
    std::int64_t last_cpu = 0;
    std::uint64_t last_steal = 0;
    sim.set_round_callback([&](const fl::RoundRecord& r) {
      const std::uint64_t t = now_ns();
      const std::int64_t cpu = process_cpu_us();
      const std::uint64_t steal = roundbench::steal_ticks();
      a.round_ns.push_back(t - last);
      a.round_cpu_us.push_back(cpu - last_cpu);
      a.round_steal.push_back(steal - last_steal);
      a.eval.push_back(std::isnan(r.accuracy) ? 0 : 1);
      last = t;
      last_cpu = cpu;
      last_steal = steal;
      if (r.round + 1 == kWarmupRounds) {
        a.setup_s = static_cast<double>(t - t0) * 1e-9;
        a.setup_cpu_us = cpu - cpu0;
        a.setup_steal = steal - steal0;
      }
    });
    last_cpu = process_cpu_us();
    last_steal = roundbench::steal_ticks();
    last = now_ns();
    const fl::SimulationResult result = sim.run(attack.get());
    a.outcome = outcome_of(result);
  } catch (const std::exception& e) {
    a.error = std::string("exception: ") + e.what();
  }
  return a;
}

// ── Traced run ────────────────────────────────────────────────────────────

/// Everything the traced run counts besides its spans, per round.
struct RoundCounts {
  std::int64_t rows_ingested = 0;
  std::int64_t repaired = 0;
  std::int64_t cpu_us = 0;  // process CPU during the round
  std::uint64_t steal = 0;  // steal ticks during the round
};

struct TracedRun {
  double synth_s = 0.0;
  double partition_s = 0.0;
  Outcome outcome;
  std::vector<RoundCounts> rounds;
  /// Batch size -> number of batches, over the rounds after warm-up.
  std::map<std::int64_t, std::int64_t> train_batches;
  std::map<std::int64_t, std::int64_t> eval_batches;
  std::vector<util::prof::CounterSample> counters;
  std::uint64_t dropped_events = 0;
  std::vector<float> final_model;
};

void count_batches(std::map<std::int64_t, std::int64_t>& out,
                   std::int64_t samples, std::int64_t batch,
                   std::int64_t times) {
  if (samples / batch > 0) out[batch] += times * (samples / batch);
  if (samples % batch > 0) out[samples % batch] += times;
}

/// Lower-middle median of the benign sample counts; 1 when empty.
std::int64_t median_weight(std::vector<std::int64_t> counts) {
  if (counts.empty()) return 1;
  std::sort(counts.begin(), counts.end());
  return counts[(counts.size() - 1) / 2];
}

/// Times the data layer: the draws the Simulation constructor makes.
void time_data_layer(const fl::SimulationConfig& cfg, TracedRun& out) {
  util::Rng rng(cfg.seed);
  std::uint64_t t = now_ns();
  const data::Dataset train = data::make_synthetic_dataset(
      cfg.task, cfg.train_size, rng.split(0xda7a)());
  const data::Dataset test = data::make_synthetic_dataset(
      cfg.task, cfg.test_size, rng.split(0x7e57)());
  out.synth_s = seconds_since(t);
  util::Rng part_rng = rng.split(0x9a27);
  t = now_ns();
  if (cfg.population > 0) {
    const data::HashedShardSpec spec(train.size(), cfg.population,
                                     cfg.samples_per_client, part_rng());
    (void)spec.shard_size();
  } else {
    const auto parts = data::dirichlet_partition(
        train.labels, train.spec.num_classes, cfg.num_clients, cfg.beta,
        part_rng);
    (void)parts.size();
  }
  out.partition_s = seconds_since(t);
}

/// Re-drives fl::Simulation::run's rounds through public calls, with a span
/// around each call. Mirrors its Rng::split order and client-seed formula,
/// so the final model must equal Simulation::run's for the same workload.
TracedRun run_traced(const Workload& w, roundbench::Tracer& tracer) {
  const fl::SimulationConfig& cfg = w.config;
  TracedRun out;

  fl::Simulation sim(cfg);  // data, registry and attacker count
  const auto attack = fl::make_attack(w.attack, sim, w.zka, w.attack_seed);
  const fl::ClientRegistry& registry = sim.registry();
  const models::ModelFactory factory = models::task_model_factory(cfg.task);
  defense::AggregatorOptions agg_options;
  agg_options.num_byzantine = cfg.defense_f;
  agg_options.sketch_dim = cfg.sketch_dim;
  agg_options.memory_budget_bytes = cfg.memory_budget_bytes;
  const auto aggregator = defense::make_aggregator(cfg.defense, agg_options);
  util::ThreadPool& pool = util::global_thread_pool();

  util::Rng rng(cfg.seed ^ 0xf00dULL);
  std::vector<float> global = nn::get_flat_params(*factory(rng.split(2)()));
  std::vector<float> prev_global = global;
  const std::size_t update_bytes = global.size() * sizeof(float);
  const std::int64_t num_malicious = sim.num_malicious();
  const auto is_malicious_id = [&](std::size_t c) {
    return static_cast<std::int64_t>(c) < num_malicious;
  };

  fl::SimulationResult result;
  result.defense_selects = aggregator->selects_clients();

  for (std::int64_t round = 0; round < cfg.rounds; ++round) {
    const bool timed = round >= kWarmupRounds;
    if (round == kWarmupRounds) {
      // Exact work counters over the timed rounds only.
      util::prof::reset();
      util::prof::set_enabled(true);
    }
    const std::int64_t cpu_before = process_cpu_us();
    const std::uint64_t steal_before = roundbench::steal_ticks();
    ScopedSpan round_span(tracer, "fl.round", -1, round);
    const std::int32_t rid = round_span.id();
    const std::size_t ingress_before = aggregator->ingress().zeroed_values() +
                                       aggregator->ingress().clamped_weights();
    RoundCounts counts;
    {
      ScopedSpan s(tracer, "defense.aggregate", rid, round, Meter::kProcess);
      aggregator->begin_round(global, round);
    }
    util::Rng round_rng =
        rng.split(0x1000 + static_cast<std::uint64_t>(round));
    const auto sampled = round_rng.sample_without_replacement(
        static_cast<std::size_t>(registry.population()),
        static_cast<std::size_t>(cfg.clients_per_round));
    std::vector<std::size_t> benign_ids;
    std::vector<std::size_t> malicious_ids;
    for (const std::size_t c : sampled) {
      (is_malicious_id(c) ? malicious_ids : benign_ids).push_back(c);
    }
    const bool have_malicious = !malicious_ids.empty();
    std::vector<std::int64_t> benign_weights;
    for (const std::size_t c : benign_ids) {
      benign_weights.push_back(
          registry.num_samples(static_cast<std::int64_t>(c)));
    }
    const std::int64_t benign_median = median_weight(benign_weights);

    defense::Update malicious_update;
    std::int64_t malicious_weight = 0;
    const auto craft = [&](const std::vector<defense::Update>* benign) {
      ScopedSpan s(tracer, "core.craft", rid, round, Meter::kProcess);
      attack::AttackContext ctx;
      ctx.global_model = global;
      ctx.prev_global_model = prev_global;
      ctx.benign_updates = attack->needs_benign_updates() ? benign : nullptr;
      ctx.round = round;
      ctx.num_selected = cfg.clients_per_round;
      ctx.num_malicious_selected =
          static_cast<std::int64_t>(malicious_ids.size());
      ctx.learning_rate = cfg.client.learning_rate;
      ctx.benign_median_weight = benign_median;
      malicious_update = attack->craft(ctx);
      malicious_weight = attack->reported_weight(ctx);
    };
    // Trains `ids` on the pool into `updates`, one span per client.
    const auto train_phase = [&](const std::vector<std::size_t>& ids,
                                 std::vector<defense::Update>& updates) {
      updates.resize(ids.size());
      ScopedSpan phase(tracer, "fl.train_phase", rid, round);
      const std::int32_t pid = phase.id();
      pool.parallel_for(ids.size(), [&](std::size_t k) {
        ScopedSpan s(tracer, "fl.client_train", pid, round, Meter::kThread);
        const fl::Client client = [&] {
          ScopedSpan r(tracer, "fl.registry.client", s.id(), round);
          return registry.client(static_cast<std::int64_t>(ids[k]));
        }();
        const std::uint64_t seed =
            cfg.seed * 0x9e3779b97f4a7c15ULL +
            static_cast<std::uint64_t>(round) * 1315423911ULL +
            static_cast<std::uint64_t>(client.id());
        updates[k] = client.train(global, seed);
      });
      if (timed) {
        for (const std::size_t c : ids) {
          count_batches(out.train_batches,
                        registry.num_samples(static_cast<std::int64_t>(c)),
                        cfg.client.batch_size, cfg.client.local_epochs);
        }
      }
    };

    const bool streaming = cfg.memory_budget_bytes > 0 &&
                           aggregator->supports_streaming() &&
                           !attack->needs_benign_updates();
    defense::AggregationResult agg;
    std::vector<bool> is_malicious;
    std::size_t round_peak_bytes = 0;
    std::vector<std::size_t> wave_benign;
    std::vector<defense::Update> wave_updates;
    if (streaming) {
      if (have_malicious) craft(nullptr);
      std::vector<std::int64_t> weights;
      std::size_t benign_cursor = 0;
      for (const std::size_t c : sampled) {
        const bool mal = is_malicious_id(c);
        is_malicious.push_back(mal);
        weights.push_back(mal ? malicious_weight
                              : benign_weights[benign_cursor++]);
      }
      {
        ScopedSpan s(tracer, "defense.aggregate", rid, round, Meter::kProcess);
        aggregator->begin_stream(global.size(), weights);
      }
      const std::size_t capacity = cfg.memory_budget_bytes / update_bytes;
      const std::size_t wave = std::clamp<std::size_t>(
          have_malicious && capacity > 1 ? capacity - 1 : capacity,
          std::size_t{1}, sampled.size());
      for (std::size_t start = 0; start < sampled.size(); start += wave) {
        const std::size_t end = std::min(start + wave, sampled.size());
        wave_benign.clear();
        for (std::size_t i = start; i < end; ++i) {
          if (!is_malicious_id(sampled[i])) wave_benign.push_back(sampled[i]);
        }
        train_phase(wave_benign, wave_updates);
        round_peak_bytes = std::max(
            round_peak_bytes,
            (wave_updates.size() + (have_malicious ? 1 : 0)) * update_bytes);
        ScopedSpan s(tracer, "defense.aggregate", rid, round, Meter::kProcess);
        std::size_t wave_cursor = 0;
        for (std::size_t i = start; i < end; ++i) {
          aggregator->stream_update(
              is_malicious_id(sampled[i])
                  ? defense::UpdateView(malicious_update)
                  : defense::UpdateView(wave_updates[wave_cursor++]));
          ++counts.rows_ingested;
        }
      }
      const auto replay = aggregator->stream_replay_request();
      const std::vector<std::size_t> replay_ids(replay.begin(), replay.end());
      for (std::size_t start = 0; start < replay_ids.size();) {
        wave_benign.clear();
        std::size_t end = start;
        while (end < replay_ids.size() && wave_benign.size() < wave) {
          const std::size_t c = sampled[replay_ids[end]];
          if (!is_malicious_id(c)) wave_benign.push_back(c);
          ++end;
        }
        train_phase(wave_benign, wave_updates);
        round_peak_bytes = std::max(
            round_peak_bytes,
            (wave_updates.size() + (have_malicious ? 1 : 0)) * update_bytes);
        ScopedSpan s(tracer, "defense.aggregate", rid, round, Meter::kProcess);
        std::size_t wave_cursor = 0;
        for (std::size_t i = start; i < end; ++i) {
          const std::size_t idx = replay_ids[i];
          aggregator->stream_replay(
              idx, is_malicious_id(sampled[idx])
                       ? defense::UpdateView(malicious_update)
                       : defense::UpdateView(wave_updates[wave_cursor++]));
          ++counts.rows_ingested;
        }
        start = end;
      }
      ScopedSpan s(tracer, "defense.aggregate", rid, round, Meter::kProcess);
      agg = aggregator->finish_stream();
    } else {
      std::vector<defense::Update> benign_updates;
      train_phase(benign_ids, benign_updates);
      if (have_malicious) craft(&benign_updates);
      std::vector<defense::UpdateView> updates;
      std::vector<std::int64_t> weights;
      std::size_t benign_cursor = 0;
      for (const std::size_t c : sampled) {
        const bool mal = is_malicious_id(c);
        is_malicious.push_back(mal);
        if (mal) {
          updates.emplace_back(malicious_update);
          weights.push_back(malicious_weight);
        } else {
          updates.emplace_back(benign_updates[benign_cursor]);
          weights.push_back(benign_weights[benign_cursor]);
          ++benign_cursor;
        }
      }
      round_peak_bytes =
          (benign_updates.size() + (have_malicious ? 1 : 0)) * update_bytes;
      ScopedSpan s(tracer, "defense.aggregate", rid, round, Meter::kProcess);
      agg = aggregator->aggregate(updates, weights);
      counts.rows_ingested = static_cast<std::int64_t>(updates.size());
    }
    result.peak_update_bytes =
        std::max(result.peak_update_bytes, round_peak_bytes);
    prev_global = std::move(global);
    global = std::move(agg.model);

    fl::RoundRecord record;
    record.round = round;
    record.malicious_selected =
        static_cast<std::int64_t>(malicious_ids.size());
    record.benign_selected = static_cast<std::int64_t>(benign_ids.size());
    if (aggregator->selects_clients()) {
      for (const std::size_t idx : agg.selected) {
        if (is_malicious.at(idx)) ++record.malicious_passed;
        else ++record.benign_passed;
      }
    }
    if (cfg.eval_every > 0 &&
        (round % cfg.eval_every == 0 || round + 1 == cfg.rounds)) {
      ScopedSpan s(tracer, "fl.eval", rid, round);
      record.accuracy = fl::evaluate_accuracy(factory, global, sim.test_data());
      result.final_accuracy = record.accuracy;
      if (timed) count_batches(out.eval_batches, sim.test_data().size(), 64, 1);
    }
    result.rounds.push_back(record);
    counts.repaired = static_cast<std::int64_t>(
        aggregator->ingress().zeroed_values() +
        aggregator->ingress().clamped_weights() - ingress_before);
    counts.steal = roundbench::steal_ticks() - steal_before;
    counts.cpu_us = process_cpu_us() - cpu_before;
    out.rounds.push_back(counts);
  }
  out.counters = util::prof::counters();
  out.dropped_events = util::prof::dropped_events();
  util::prof::set_enabled(false);
  // After the rounds, so its allocations cannot change the heap the rounds
  // ran on (glibc adapts its mmap threshold to the blocks freed so far).
  time_data_layer(cfg, out);
  result.final_model = global;
  out.outcome = outcome_of(result);
  out.final_model = std::move(global);
  return out;
}

// ── Layer-by-layer replay ─────────────────────────────────────────────────

std::string layer_kind(const std::string& name) {
  static const std::map<std::string, std::string> kinds = {
      {"Conv2d", "conv2d"},   {"ConvTranspose2d", "conv_transpose2d"},
      {"ReLU", "relu"},       {"MaxPool2d", "maxpool2d"},
      {"Flatten", "flatten"}, {"Unflatten", "unflatten"},
      {"Linear", "linear"},   {"Tanh", "tanh"}};
  const auto it = kinds.find(name);
  return it == kinds.end() ? name : it->second;
}

using KindMs = std::map<std::string, double>;

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median per-kind milliseconds of one pass of `net` over `input`, summed
/// over the layers of each kind: forward, then (with `backward`) the loss
/// or a unit output gradient, backward and the SGD step.
KindMs replay_pass(nn::Sequential& net, const tensor::Tensor& input,
                   std::span<const std::int64_t> labels, bool backward,
                   int reps) {
  std::map<std::string, std::vector<double>> samples;
  nn::Sgd sgd(net, {.learning_rate = 0.0f});
  nn::SoftmaxCrossEntropy loss;
  for (int rep = 0; rep <= reps; ++rep) {  // rep 0 warms up
    KindMs ms;
    const auto timed = [&](const std::string& kind, auto&& fn) {
      const std::uint64_t t = now_ns();
      fn();
      ms[kind] += static_cast<double>(now_ns() - t) * 1e-6;
    };
    tensor::Tensor x = input;
    for (std::size_t i = 0; i < net.size(); ++i) {
      timed(layer_kind(net.layer(i).name()),
            [&] { x = net.layer(i).forward(x); });
    }
    if (backward) {
      tensor::Tensor g;
      if (labels.empty()) {
        g = tensor::Tensor::full(x.shape(), 1.0f);
      } else {
        timed("loss", [&] {
          loss.forward(x, labels);
          g = loss.backward();
        });
      }
      for (std::size_t i = net.size(); i-- > 0;) {
        timed(layer_kind(net.layer(i).name()),
              [&] { g = net.layer(i).backward(g); });
      }
      if (!labels.empty()) {
        timed("sgd", [&] {
          sgd.step();
          sgd.zero_grad();
        });
      }
    }
    if (rep == 0) continue;
    for (const auto& [kind, v] : ms) samples[kind].push_back(v);
  }
  KindMs out;
  for (const auto& [kind, v] : samples) out[kind] = median_of(v);
  return out;
}

struct Replay {
  std::map<std::int64_t, KindMs> train;  // batch size -> per-kind ms
  std::map<std::int64_t, KindMs> eval;
  KindMs generator;  // one ZKA-G generator step
};

Replay replay_layers(const Workload& w, const TracedRun& traced) {
  constexpr int kReps = 7;
  const fl::SimulationConfig& cfg = w.config;
  const data::Dataset data = data::make_synthetic_dataset(
      cfg.task, 64, cfg.seed ^ 0x1a7e5ULL);
  const auto factory = models::task_model_factory(cfg.task);
  auto net = factory(1);
  nn::set_flat_params(*net, traced.final_model);
  Replay r;
  const auto run = [&](std::int64_t b, bool backward) {
    const std::span<const std::int64_t> labels(data.labels.data(),
                                               static_cast<std::size_t>(b));
    return replay_pass(*net, data.images.slice0(0, b), labels, backward,
                       kReps);
  };
  for (const auto& [b, n] : traced.train_batches) r.train[b] = run(b, true);
  for (const auto& [b, n] : traced.eval_batches) r.eval[b] = run(b, false);

  util::Rng rng(cfg.seed ^ 0x9e9ULL);
  auto gen = models::make_tcnn_generator(models::task_spec(cfg.task),
                                         w.zka.latent_dim, rng);
  const tensor::Tensor z = tensor::Tensor::normal(
      {w.zka.synthetic_size, w.zka.latent_dim}, rng);
  r.generator = replay_pass(*gen, z, {}, true, kReps);
  return r;
}

// ── JSON output ───────────────────────────────────────────────────────────

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

template <typename T, typename F>
std::string array(const std::vector<T>& v, F&& f) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += f(v[i]);
  }
  return out + "]";
}

std::string outcome_json(const Outcome& o) {
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(o.model_hash));
  return "{\"model_hash\":\"" + std::string(hash) +
         "\",\"finite\":" + (o.finite ? "true" : "false") +
         ",\"accuracy\":" + num(o.accuracy) + ",\"dpr\":" + num(o.dpr) +
         ",\"peak_update_bytes\":" + std::to_string(o.peak_update_bytes) + "}";
}

std::string attempt_fields(const Attempt& a) {
  return "\"setup_s\":" + num(a.setup_s) +
         ",\"setup_cpu_us\":" + std::to_string(a.setup_cpu_us) +
         ",\"setup_steal\":" + std::to_string(a.setup_steal) +
         ",\"round_ns\":" +
         array(a.round_ns, [](std::uint64_t v) { return std::to_string(v); }) +
         ",\"eval\":" +
         array(a.eval, [](int v) { return std::to_string(v); }) +
         ",\"round_cpu_us\":" +
         array(a.round_cpu_us, [](std::int64_t v) { return std::to_string(v); }) +
         ",\"round_steal\":" +
         array(a.round_steal, [](std::uint64_t v) { return std::to_string(v); }) +
         ",\"outcome\":" + outcome_json(a.outcome) +
         ",\"error\":" + str(a.error);
}

std::string kind_ms_json(const KindMs& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += str(k) + ":" + num(v);
  }
  return out + "}";
}

template <typename V, typename F>
std::string int_map_json(const std::map<std::int64_t, V>& m, F&& f) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += "\"" + std::to_string(k) + "\":" + f(v);
  }
  return out + "}";
}

std::string traced_fields(const TracedRun& t, const Replay& replay) {
  const auto count = [](std::int64_t v) { return std::to_string(v); };
  std::string counters;
  for (const auto& c : t.counters) {
    if (!counters.empty()) counters += ",";
    counters += str(c.name) + ":" + std::to_string(c.value);
  }
  return "\"synth_s\":" + num(t.synth_s) +
         ",\"partition_s\":" + num(t.partition_s) +
         ",\"outcome\":" + outcome_json(t.outcome) + ",\"rows_ingested\":" +
         array(t.rounds,
               [](const RoundCounts& c) { return std::to_string(c.rows_ingested); }) +
         ",\"repaired\":" +
         array(t.rounds,
               [](const RoundCounts& c) { return std::to_string(c.repaired); }) +
         ",\"round_steal\":" +
         array(t.rounds,
               [](const RoundCounts& c) { return std::to_string(c.steal); }) +
         ",\"round_cpu_us\":" +
         array(t.rounds,
               [](const RoundCounts& c) { return std::to_string(c.cpu_us); }) +
         ",\"train_batches\":" + int_map_json(t.train_batches, count) +
         ",\"eval_batches\":" + int_map_json(t.eval_batches, count) +
         ",\"counters\":{" + counters +
         "},\"dropped_events\":" + std::to_string(t.dropped_events) +
         ",\"replay_train\":" + int_map_json(replay.train, kind_ms_json) +
         ",\"replay_eval\":" + int_map_json(replay.eval, kind_ms_json) +
         ",\"replay_generator\":" + kind_ms_json(replay.generator);
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

std::string arg(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  if (fallback == nullptr) {
    throw std::invalid_argument(std::string("missing ") + name);
  }
  return fallback;
}

int run(int argc, char** argv) {
  const std::string mode = arg(argc, argv, "--mode", nullptr);
  const auto seed = static_cast<std::uint64_t>(
      std::stoull(arg(argc, argv, "--seed", nullptr)));
  const Workload w =
      make_workload(arg(argc, argv, "--workload", nullptr), seed);
  if (mode != "attempt" && mode != "traced") {
    throw std::invalid_argument("unknown mode: " + mode);
  }

  const std::size_t cpus = nproc();
  const std::size_t threads = util::global_thread_pool().size();
  if (threads > cpus) {
    std::fprintf(stderr,
                 "roundbench: pool has %zu threads but only %zu CPUs; set "
                 "ZKA_THREADS <= %zu\n",
                 threads, cpus, cpus);
    return 2;
  }
  util::prof::set_enabled(false);

  std::string json = "{\"workload\":" + str(w.name) +
                     ",\"seed\":" + std::to_string(seed) +
                     ",\"mode\":" + str(mode) +
                     ",\"nproc\":" + std::to_string(cpus) +
                     ",\"pool_threads\":" + std::to_string(threads) +
                     ",\"gemm_tier\":" + str(tensor::gemm_backend_name()) +
                     ",\"clock_ticks_per_s\":" +
                     std::to_string(sysconf(_SC_CLK_TCK)) +
                     ",\"warmup_rounds\":" + std::to_string(kWarmupRounds) +
                     ",\"rounds\":" + std::to_string(w.config.rounds) +
                     ",\"memory_budget_bytes\":" +
                     std::to_string(w.config.memory_budget_bytes);
  if (mode == "attempt") {
    json += "," + attempt_fields(run_attempt(w));
  } else {
    roundbench::Tracer tracer;
    try {
      const TracedRun traced = run_traced(w, tracer);
      json += "," + traced_fields(traced, replay_layers(w, traced)) +
              ",\"error\":\"\"";
    } catch (const std::exception& e) {
      json += ",\"error\":" + str(std::string("exception: ") + e.what());
    }
    json += ",\"spans\":" + tracer.to_json();
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  json += ",\"peak_rss_kib\":" + std::to_string(ru.ru_maxrss) + "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roundbench: %s\n", e.what());
    return 2;
  }
}
