// DESIGN.md ablation bench (beyond the paper): sensitivity of the ZKA
// attacks to their own hyperparameters, plus the update-space geometry
// (separability) that explains the stealth results.
//
// Sweeps: |S| (synthetic set size), E (synthesis epochs), J (ZKA-R filter
// kernel), latent dimension (ZKA-G). Reported per point: ASR, DPR under
// mKrum, and the malicious/benign separability ratio measured on a probe
// round (1.0 = geometrically hidden).
#include "analysis/update_diagnostics.h"
#include "bench_common.h"
#include "core/zka_g.h"
#include "core/zka_r.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/client.h"

namespace {

using namespace zka;

// Separability of the crafted update vs freshly trained benign updates on
// one probe round starting from a fresh global model.
double probe_separability(models::Task task, attack::Attack& attack,
                          std::uint64_t seed) {
  const auto factory = models::task_model_factory(task);
  const auto dataset = data::make_synthetic_dataset(task, 400, seed);
  util::Rng rng(seed);
  const auto parts =
      data::dirichlet_partition(dataset.labels, 10, 10, 0.5, rng);

  std::vector<float> global = nn::get_flat_params(*factory(seed));
  std::vector<float> prev = global;
  // One warmup aggregation so w(t) != w(t-1).
  std::vector<std::vector<float>> updates;
  for (int c = 0; c < 8; ++c) {
    fl::Client client(c, dataset, parts[static_cast<std::size_t>(c)],
                      factory, {});
    updates.push_back(client.train(global, seed + 100 + c));
  }
  prev = global;
  std::vector<double> acc(global.size(), 0.0);
  for (const auto& u : updates) {
    for (std::size_t i = 0; i < u.size(); ++i) acc[i] += u[i];
  }
  for (std::size_t i = 0; i < global.size(); ++i) {
    global[i] = static_cast<float>(acc[i] / updates.size());
  }

  // Probe round: benign updates + one crafted update.
  std::vector<std::vector<float>> round;
  std::vector<bool> malicious;
  for (int c = 0; c < 8; ++c) {
    fl::Client client(c, dataset, parts[static_cast<std::size_t>(c)],
                      factory, {});
    round.push_back(client.train(global, seed + 200 + c));
    malicious.push_back(false);
  }
  attack::AttackContext ctx;
  ctx.global_model = global;
  ctx.prev_global_model = prev;
  ctx.num_selected = 10;
  ctx.num_malicious_selected = 2;
  round.push_back(attack.craft(ctx));
  malicious.push_back(true);
  return analysis::diagnose_updates(round, malicious).separability();
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const bench::BenchScale scale = bench::scale_from_cli(args);
  bench::BenchJson report = bench::make_report("ablation_zka", args, scale);
  const models::Task task = models::Task::kFashion;
  fl::BaselineCache baselines;

  util::Table table({"Attack", "Knob", "Value", "ASR (%)", "DPR (%)",
                     "separability"});
  auto run_point = [&](fl::AttackKind kind, const char* knob,
                       const std::string& value,
                       const core::ZkaOptions& zka) {
    const fl::SimulationConfig config =
        bench::make_config(task, scale, "mkrum");
    const std::string label = std::string(fl::attack_kind_name(kind)) + "/" +
                              knob + "=" + value;
    const fl::ExperimentOutcome outcome = bench::timed_experiment(
        report, label, config, kind, zka, scale.runs, baselines);
    fl::Simulation probe_sim(config);
    const auto attack = fl::make_attack(kind, probe_sim, zka, scale.seed);
    const double sep = probe_separability(task, *attack, scale.seed + 17);
    report.add_metric(label, "asr", outcome.asr);
    report.add_metric(label, "separability", sep);
    table.add_row({fl::attack_kind_name(kind), knob, value,
                   util::Table::fmt(outcome.asr, 2),
                   bench::fmt_or_na(outcome.dpr),
                   util::Table::fmt(sep, 2)});
    std::printf("[ablation-zka] %s %s=%s: ASR %.2f sep %.2f\n",
                fl::attack_kind_name(kind), knob, value.c_str(), outcome.asr,
                sep);
    std::fflush(stdout);
  };

  // |S| sweep (both variants).
  for (const std::int64_t s : {8, 16, 32, 64}) {
    for (const fl::AttackKind kind :
         {fl::AttackKind::kZkaR, fl::AttackKind::kZkaG}) {
      core::ZkaOptions zka = bench::default_zka_options(task);
      zka.synthetic_size = s;
      run_point(kind, "|S|", std::to_string(s), zka);
    }
  }
  // Synthesis epochs E.
  for (const std::int64_t e : {1, 4, 10}) {
    for (const fl::AttackKind kind :
         {fl::AttackKind::kZkaR, fl::AttackKind::kZkaG}) {
      core::ZkaOptions zka = bench::default_zka_options(task);
      zka.synthesis_epochs = e;
      run_point(kind, "E", std::to_string(e), zka);
    }
  }
  // ZKA-R filter kernel J.
  for (const std::int64_t j : {3, 5, 7}) {
    core::ZkaOptions zka = bench::default_zka_options(task);
    zka.filter_kernel = j;
    run_point(fl::AttackKind::kZkaR, "J", std::to_string(j), zka);
  }
  // ZKA-G latent dimension.
  for (const std::int64_t d : {16, 64, 128}) {
    core::ZkaOptions zka = bench::default_zka_options(task);
    zka.latent_dim = d;
    run_point(fl::AttackKind::kZkaG, "latent", std::to_string(d), zka);
  }

  table.print("\nAblation — ZKA hyperparameter sensitivity (Fashion, mKrum)");
  bench::maybe_write_csv(args, table);
  bench::finish_report(report, args);
  return 0;
}
