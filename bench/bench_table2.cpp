// Reproduces Table II: maximum accuracy and attack success rate (ASR) for
// Fang / LIE / Min-Max / ZKA-R / ZKA-G under the four defenses on both
// tasks, Dirichlet beta = 0.5.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace zka;
  const util::CliArgs args(argc, argv);
  const bench::BenchScale scale = bench::scale_from_cli(args);
  bench::BenchJson report = bench::make_report("table2", args, scale);

  const fl::AttackKind attacks[] = {
      fl::AttackKind::kFang, fl::AttackKind::kLie, fl::AttackKind::kMinMax,
      fl::AttackKind::kZkaR, fl::AttackKind::kZkaG};
  const char* defenses[] = {"mkrum", "trmean", "bulyan", "median"};

  util::Table table({"Dataset", "Defense", "Attack", "acc_natk (%)",
                     "acc (%)", "ASR (%)", "ASR stddev"});
  fl::BaselineCache baselines;

  for (const models::Task task : bench::tasks_from_cli(args)) {
    for (const char* defense : defenses) {
      for (const fl::AttackKind attack : attacks) {
        const fl::SimulationConfig config =
            bench::make_config(task, scale, defense);
        const std::string label = std::string(models::task_name(task)) +
                                  "/" + defense + "/" +
                                  fl::attack_kind_name(attack);
        const fl::ExperimentOutcome outcome = bench::timed_experiment(
            report, label, config, attack, bench::default_zka_options(task),
            scale.runs, baselines);
        report.add_metric(label, "acc", outcome.max_acc);
        report.add_metric(label, "asr", outcome.asr);
        table.add_row({models::task_name(task), defense,
                       fl::attack_kind_name(attack),
                       util::Table::fmt(outcome.acc_natk, 1),
                       util::Table::fmt(outcome.max_acc, 1),
                       util::Table::fmt(outcome.asr, 2),
                       util::Table::fmt(outcome.asr_stddev, 2)});
        std::printf("[table2] %s/%s/%s: acc %.1f%%  ASR %.2f%%\n",
                    models::task_name(task), defense,
                    fl::attack_kind_name(attack), outcome.max_acc,
                    outcome.asr);
        std::fflush(stdout);
      }
    }
  }
  table.print("\nTable II — acc and ASR under attack (Dirichlet beta=0.5)");
  bench::maybe_write_csv(args, table);
  bench::finish_report(report, args);
  return 0;
}
