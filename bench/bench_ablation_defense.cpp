// DESIGN.md ablation bench (beyond the paper): how aggregation-rule
// parameters and the extension defenses change the ZKA outcome.
//
// Part 1 sweeps mKrum's selection size m and assumed Byzantine bound f.
// Part 2 pits the ZKA attacks against the extension defenses (FoolsGold,
// NormClip, GeoMedian, CenteredClip, FLTrust) the paper did not evaluate.
#include "bench_common.h"
#include "data/synthetic.h"
#include "defense/fltrust.h"
#include "defense/krum.h"

int main(int argc, char** argv) {
  using namespace zka;
  const util::CliArgs args(argc, argv);
  const bench::BenchScale scale = bench::scale_from_cli(args);
  bench::BenchJson report = bench::make_report("ablation_defense", args, scale);
  const models::Task task = models::Task::kFashion;
  fl::BaselineCache baselines;
  const core::ZkaOptions zka = bench::default_zka_options(task);

  // ---- Part 1: mKrum parameter sweep -----------------------------------
  util::Table mkrum_table({"Attack", "f", "m", "ASR (%)", "DPR (%)"});
  for (const fl::AttackKind attack :
       {fl::AttackKind::kZkaR, fl::AttackKind::kZkaG}) {
    struct Param {
      std::size_t f;
      std::size_t m;
    };
    for (const Param p :
         {Param{1, 0}, Param{2, 0}, Param{3, 0},   // default m = n - f
          Param{2, 4}, Param{2, 6}, Param{2, 8}}) {
      fl::SimulationConfig config = bench::make_config(task, scale, "mkrum");
      config.defense_f = p.f;
      config.custom_defense = [p] {
        return std::make_unique<defense::MultiKrum>(p.f, p.m);
      };
      const std::string label = std::string("mkrum/f=") +
                                std::to_string(p.f) +
                                "/m=" + std::to_string(p.m) + "/" +
                                fl::attack_kind_name(attack);
      const fl::ExperimentOutcome outcome = bench::timed_experiment(
          report, label, config, attack, zka, scale.runs, baselines);
      report.add_metric(label, "asr", outcome.asr);
      report.add_metric(label, "dpr", outcome.dpr);
      mkrum_table.add_row(
          {fl::attack_kind_name(attack), std::to_string(p.f),
           p.m == 0 ? "n-f" : std::to_string(p.m),
           util::Table::fmt(outcome.asr, 2), bench::fmt_or_na(outcome.dpr)});
      std::printf("[ablation] mkrum f=%zu m=%zu %s: ASR %.2f DPR %.2f\n",
                  p.f, p.m, fl::attack_kind_name(attack), outcome.asr,
                  outcome.dpr);
      std::fflush(stdout);
    }
  }
  mkrum_table.print("\nAblation — mKrum parameters vs ZKA (Fashion)");

  // ---- Part 2: extension defenses --------------------------------------
  util::Table ext_table({"Defense", "Attack", "acc (%)", "ASR (%)",
                         "DPR (%)"});
  for (const char* defense :
       {"foolsgold", "normclip", "geomedian", "centeredclip", "fltrust"}) {
    for (const fl::AttackKind attack :
         {fl::AttackKind::kZkaR, fl::AttackKind::kZkaG,
          fl::AttackKind::kMinMax}) {
      fl::SimulationConfig config = bench::make_config(task, scale, "median");
      if (std::string(defense) == "fltrust") {
        const std::uint64_t seed = config.seed;
        config.custom_defense = [task, seed] {
          // The server's clean root dataset (distinct seed from clients).
          return std::make_unique<defense::FlTrust>(
              data::make_synthetic_dataset(task, 64, seed ^ 0xf17057u),
              models::task_model_factory(task), defense::FlTrustOptions{},
              seed);
        };
      } else {
        config.defense = defense;
      }
      const std::string label =
          std::string(defense) + "/" + fl::attack_kind_name(attack);
      const fl::ExperimentOutcome outcome = bench::timed_experiment(
          report, label, config, attack, zka, scale.runs, baselines);
      report.add_metric(label, "asr", outcome.asr);
      report.add_metric(label, "acc", outcome.max_acc);
      ext_table.add_row({defense, fl::attack_kind_name(attack),
                         util::Table::fmt(outcome.max_acc, 1),
                         util::Table::fmt(outcome.asr, 2),
                         bench::fmt_or_na(outcome.dpr)});
      std::printf("[ablation] %s vs %s: ASR %.2f\n", defense,
                  fl::attack_kind_name(attack), outcome.asr);
      std::fflush(stdout);
    }
  }
  ext_table.print(
      "\nAblation — extension defenses (not in the paper) vs ZKA/Min-Max");
  bench::maybe_write_csv(args, ext_table);
  bench::finish_report(report, args);
  return 0;
}
