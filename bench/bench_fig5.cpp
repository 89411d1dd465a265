// Reproduces Fig. 5: defense pass rate (DPR) of the five attacks on the
// two selection defenses (mKrum, Bulyan), both tasks, beta = 0.5. The
// random-weights strawman from Sec. IV-A is included as a sixth series to
// reproduce its quoted near-zero pass rate.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace zka;
  const util::CliArgs args(argc, argv);
  const bench::BenchScale scale = bench::scale_from_cli(args);
  bench::BenchJson report = bench::make_report("fig5", args, scale);

  const fl::AttackKind attacks[] = {
      fl::AttackKind::kFang,   fl::AttackKind::kLie,
      fl::AttackKind::kMinMax, fl::AttackKind::kZkaR,
      fl::AttackKind::kZkaG,   fl::AttackKind::kRandomWeights};
  const char* defenses[] = {"mkrum", "bulyan"};

  util::Table table({"Dataset", "Defense", "Attack", "DPR (%)"});
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
        report.add_metric(label, "dpr", outcome.dpr);
        table.add_row({models::task_name(task), defense,
                       fl::attack_kind_name(attack),
                       bench::fmt_or_na(outcome.dpr)});
        std::printf("[fig5] %s/%s/%s: DPR %.2f%%\n", models::task_name(task),
                    defense, fl::attack_kind_name(attack), outcome.dpr);
        std::fflush(stdout);
      }
    }
  }
  table.print("\nFig. 5 — defense pass rate (DPR), Dirichlet beta=0.5");
  bench::maybe_write_csv(args, table);
  bench::finish_report(report, args);
  return 0;
}
