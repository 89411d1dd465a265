// Reproduces Table IV: ASR and DPR of the static (randomly initialized,
// never trained) filter/generator variants vs the trained ZKA attacks,
// all four defenses, both tasks.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace zka;
  const util::CliArgs args(argc, argv);
  const bench::BenchScale scale = bench::scale_from_cli(args);
  bench::BenchJson report = bench::make_report("table4", args, scale);

  struct Pair {
    fl::AttackKind static_kind;
    fl::AttackKind trained_kind;
    const char* family;
  };
  const Pair pairs[] = {
      {fl::AttackKind::kZkaRStatic, fl::AttackKind::kZkaR, "ZKA-R"},
      {fl::AttackKind::kZkaGStatic, fl::AttackKind::kZkaG, "ZKA-G"},
  };
  const char* defenses[] = {"mkrum", "trmean", "bulyan", "median"};

  util::Table table({"Attack", "Dataset", "Defense", "Static ASR (%)",
                     "Static DPR (%)", "Trained ASR (%)", "Trained DPR (%)"});
  fl::BaselineCache baselines;

  for (const Pair& pair : pairs) {
    for (const models::Task task : bench::tasks_from_cli(args)) {
      for (const char* defense : defenses) {
        const fl::SimulationConfig config =
            bench::make_config(task, scale, defense);
        const core::ZkaOptions zka = bench::default_zka_options(task);
        const std::string base = std::string(pair.family) + "/" +
                                 models::task_name(task) + "/" + defense;
        const fl::ExperimentOutcome st = bench::timed_experiment(
            report, base + "/static", config, pair.static_kind, zka, scale.runs,
            baselines);
        const fl::ExperimentOutcome tr = bench::timed_experiment(
            report, base + "/trained", config, pair.trained_kind, zka,
            scale.runs, baselines);
        report.add_metric(base + "/static", "asr", st.asr);
        report.add_metric(base + "/static", "dpr", st.dpr);
        report.add_metric(base + "/trained", "asr", tr.asr);
        report.add_metric(base + "/trained", "dpr", tr.dpr);
        table.add_row({pair.family, models::task_name(task), defense,
                       util::Table::fmt(st.asr, 2), bench::fmt_or_na(st.dpr),
                       util::Table::fmt(tr.asr, 2),
                       bench::fmt_or_na(tr.dpr)});
        std::printf(
            "[table4] %s/%s/%s: static ASR %.2f DPR %s | trained ASR %.2f "
            "DPR %s\n",
            pair.family, models::task_name(task), defense, st.asr,
            bench::fmt_or_na(st.dpr).c_str(), tr.asr,
            bench::fmt_or_na(tr.dpr).c_str());
        std::fflush(stdout);
      }
    }
  }
  table.print("\nTable IV — static (untrained) vs trained synthesis");
  bench::maybe_write_csv(args, table);
  bench::finish_report(report, args);
  return 0;
}
