// Shared plumbing for the paper-reproduction bench binaries.
//
// Every bench accepts:
//   --full            paper-scale run (100 clients, 3 repetitions, long
//                     training) instead of the quick single-core default
//   --runs N          repetitions (paper: 3)
//   --rounds N        FL rounds per run
//   --train-size N    training-set size
//   --seed S          base seed
//   --task fashion|cifar|all
//   --csv PATH        also write the table as CSV
//   --prof            enable the util/prof runtime profiler for this run
//   --trace PATH      write a Chrome trace-event JSON (load in Perfetto)
//   --out DIR         directory for BENCH_<name>.json (default: results)
//
// The quick defaults are sized so the whole bench suite regenerates every
// table and figure in tens of minutes on one CPU core; shapes (who wins,
// rough factors, crossovers) are what is being reproduced, not absolute
// GPU-scale numbers — see EXPERIMENTS.md.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "core/zka_options.h"
#include "fl/experiment.h"
#include "util/cli.h"
#include "util/prof.h"
#include "util/table.h"

namespace zka::bench {

struct BenchScale {
  int runs = 1;
  std::int64_t num_clients = 50;
  std::int64_t clients_per_round = 10;
  std::int64_t rounds_fashion = 10;
  std::int64_t rounds_cifar = 20;
  std::int64_t train_fashion = 800;
  std::int64_t train_cifar = 1000;
  std::int64_t test_fashion = 300;
  std::int64_t test_cifar = 250;
  std::int64_t eval_every_cifar = 2;
  std::uint64_t seed = 1;
};

inline BenchScale scale_from_cli(const util::CliArgs& args) {
  BenchScale s;
  if (args.get_bool("full", false)) {
    // Paper scale (Sec. V-A): 100 clients, 10 sampled, 10% of the datasets,
    // 3 repetitions.
    s.runs = 3;
    s.num_clients = 100;
    s.rounds_fashion = 60;
    s.rounds_cifar = 60;
    s.train_fashion = 6000;
    s.train_cifar = 5000;
    s.test_fashion = 1000;
    s.test_cifar = 1000;
    s.eval_every_cifar = 1;
  }
  s.runs = args.get_int("runs", s.runs);
  s.seed = static_cast<std::uint64_t>(args.get_int64("seed", 1));
  const std::int64_t rounds = args.get_int64("rounds", 0);
  if (rounds > 0) {
    s.rounds_fashion = rounds;
    s.rounds_cifar = rounds;
  }
  const std::int64_t train = args.get_int64("train-size", 0);
  if (train > 0) {
    s.train_fashion = train;
    s.train_cifar = train;
  }
  return s;
}

inline fl::SimulationConfig make_config(models::Task task,
                                        const BenchScale& scale,
                                        const std::string& defense,
                                        double beta = 0.5) {
  fl::SimulationConfig config;
  config.task = task;
  config.num_clients = scale.num_clients;
  config.clients_per_round = scale.clients_per_round;
  config.malicious_fraction = 0.2;  // paper: adversary controls 20%
  config.beta = beta;
  config.defense = defense;
  config.defense_f = 2;  // 20% of K = 10
  config.seed = scale.seed;
  if (task == models::Task::kFashion) {
    config.rounds = scale.rounds_fashion;
    config.train_size = scale.train_fashion;
    config.test_size = scale.test_fashion;
  } else {
    config.rounds = scale.rounds_cifar;
    config.train_size = scale.train_cifar;
    config.test_size = scale.test_cifar;
    config.eval_every = scale.eval_every_cifar;
  }
  return config;
}

inline core::ZkaOptions default_zka_options(models::Task task) {
  core::ZkaOptions zka;
  zka.synthetic_size = task == models::Task::kFashion ? 24 : 16;
  zka.synthesis_epochs = 4;
  zka.synthesis_lr = 0.05f;
  zka.latent_dim = 64;
  // classifier (step-2) options keep the tuned library defaults:
  // epochs 5, lr 0.01, lambda 8 (see core/adversarial_trainer.h).
  return zka;
}

inline std::vector<models::Task> tasks_from_cli(const util::CliArgs& args) {
  const std::string task = args.get_string("task", "all");
  if (task == "fashion") return {models::Task::kFashion};
  if (task == "cifar") return {models::Task::kCifar};
  return {models::Task::kFashion, models::Task::kCifar};
}

inline std::string fmt_or_na(double value, int precision = 2) {
  return std::isnan(value) ? "NA" : util::Table::fmt(value, precision);
}

inline void maybe_write_csv(const util::CliArgs& args,
                            const util::Table& table) {
  const std::string path = args.get_string("csv", "");
  if (!path.empty()) {
    table.write_csv(path);
    std::printf("wrote %s\n", path.c_str());
  }
}

/// Creates the bench's machine-readable report and applies the shared
/// observability CLI (`--prof` flips the runtime profiler on before any
/// timed work). The scale knobs are recorded so bench_diff.py can refuse
/// to compare runs with different configurations.
inline BenchJson make_report(const std::string& name,
                             const util::CliArgs& args,
                             const BenchScale& scale) {
  if (args.get_bool("prof", false)) util::prof::set_enabled(true);
  BenchJson report(name);
  report.set_config("full", std::string(args.get_bool("full", false)
                                            ? "true" : "false"));
  report.set_config("runs", static_cast<std::int64_t>(scale.runs));
  report.set_config("num_clients", scale.num_clients);
  report.set_config("rounds_fashion", scale.rounds_fashion);
  report.set_config("rounds_cifar", scale.rounds_cifar);
  report.set_config("train_fashion", scale.train_fashion);
  report.set_config("train_cifar", scale.train_cifar);
  report.set_config("seed", static_cast<std::int64_t>(scale.seed));
  return report;
}

/// Variant for benches that do not use BenchScale (e.g. fig4).
inline BenchJson make_report(const std::string& name,
                             const util::CliArgs& args) {
  if (args.get_bool("prof", false)) util::prof::set_enabled(true);
  return BenchJson(name);
}

/// Runs `fn`, records its wall time (ns) as one sample of `label`, and
/// forwards the result.
template <typename Fn>
decltype(auto) timed(BenchJson& report, const std::string& label, Fn&& fn) {
  const std::uint64_t start = util::prof::now_ns();
  if constexpr (std::is_void_v<std::invoke_result_t<Fn&&>>) {
    std::forward<Fn>(fn)();
    report.add_sample(label,
                      static_cast<double>(util::prof::now_ns() - start));
  } else {
    decltype(auto) result = std::forward<Fn>(fn)();
    report.add_sample(label,
                      static_cast<double>(util::prof::now_ns() - start));
    return result;
  }
}

/// Runs fl::run_experiment and records its wall time as one sample of
/// `label`. The attack-free baselines of its run seeds (config.seed,
/// config.seed + 1, ...) are filled first, outside the clock, so the first
/// row of each baseline key does not also time the clean FedAvg run that
/// the rows after it reuse.
inline fl::ExperimentOutcome timed_experiment(
    BenchJson& report, const std::string& label,
    const fl::SimulationConfig& config, fl::AttackKind kind,
    const core::ZkaOptions& zka, int runs, fl::BaselineCache& baselines) {
  for (int r = 0; r < runs; ++r) {
    fl::SimulationConfig run_config = config;
    run_config.seed = config.seed + static_cast<std::uint64_t>(r);
    baselines.attack_free_accuracy(run_config);
  }
  return timed(report, label, [&] {
    return fl::run_experiment(config, kind, zka, runs, baselines);
  });
}

/// Writes BENCH_<name>.json into `--out` (default results/) and, when
/// `--trace PATH` was given, a Chrome trace-event file of the whole run.
inline void finish_report(const BenchJson& report,
                          const util::CliArgs& args) {
  const std::string path = report.write(args.get_string("out", "results"));
  std::printf("wrote %s\n", path.c_str());
  const std::string trace = args.get_string("trace", "");
  if (!trace.empty()) {
    util::prof::write_chrome_trace(trace);
    std::printf("wrote %s (load in https://ui.perfetto.dev)\n",
                trace.c_str());
  }
}

}  // namespace zka::bench
