#include "fl/experiment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

namespace zka::fl {
namespace {

SimulationConfig tiny_config() {
  SimulationConfig config;
  config.num_clients = 15;
  config.clients_per_round = 5;
  config.rounds = 4;
  config.train_size = 200;
  config.test_size = 80;
  config.malicious_fraction = 0.2;
  config.seed = 5;
  return config;
}

core::ZkaOptions tiny_zka() {
  core::ZkaOptions zka;
  zka.synthetic_size = 4;
  zka.synthesis_epochs = 2;
  zka.latent_dim = 8;
  return zka;
}

TEST(AttackKinds, NamesRoundTrip) {
  const std::pair<const char*, AttackKind> cases[] = {
      {"none", AttackKind::kNone},
      {"fang", AttackKind::kFang},
      {"lie", AttackKind::kLie},
      {"minmax", AttackKind::kMinMax},
      {"zka-r", AttackKind::kZkaR},
      {"zka-g", AttackKind::kZkaG},
      {"zka-r-static", AttackKind::kZkaRStatic},
      {"zka-g-static", AttackKind::kZkaGStatic},
      {"real-data", AttackKind::kRealData},
      {"random-weights", AttackKind::kRandomWeights},
      {"label-flip", AttackKind::kLabelFlip},
  };
  for (const auto& [name, kind] : cases) {
    EXPECT_EQ(parse_attack_kind(name), kind) << name;
    EXPECT_FALSE(std::string(attack_kind_name(kind)).empty());
  }
  EXPECT_THROW(parse_attack_kind("unknown"), std::invalid_argument);
}

TEST(MakeAttack, ConstructsEveryKind) {
  Simulation sim(tiny_config());
  for (const AttackKind kind :
       {AttackKind::kFang, AttackKind::kLie, AttackKind::kMinMax,
        AttackKind::kZkaR, AttackKind::kZkaG, AttackKind::kZkaRStatic,
        AttackKind::kZkaGStatic, AttackKind::kRealData,
        AttackKind::kRandomWeights, AttackKind::kLabelFlip}) {
    const auto attack = make_attack(kind, sim, tiny_zka(), 1);
    ASSERT_NE(attack, nullptr) << attack_kind_name(kind);
  }
  EXPECT_EQ(make_attack(AttackKind::kNone, sim, tiny_zka(), 1), nullptr);
}

TEST(MakeAttack, StaticVariantsDisableTraining) {
  Simulation sim(tiny_config());
  const auto s = make_attack(AttackKind::kZkaRStatic, sim, tiny_zka(), 2);
  EXPECT_EQ(s->name(), "ZKA-R-static");
  const auto g = make_attack(AttackKind::kZkaGStatic, sim, tiny_zka(), 2);
  EXPECT_EQ(g->name(), "ZKA-G-static");
}

TEST(BaselineCacheTest, CachesAcrossDefenses) {
  BaselineCache cache;
  SimulationConfig config = tiny_config();
  config.defense = "mkrum";
  const double a = cache.attack_free_accuracy(config);
  config.defense = "bulyan";  // irrelevant to the baseline key
  const double b = cache.attack_free_accuracy(config);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GT(a, 0.1);
}

TEST(BaselineCacheTest, IgnoresCustomDefense) {
  // Regression: the baseline kept the caller's custom_defense, which
  // Simulation prefers over the named rule, so an "attack-free FedAvg"
  // baseline actually ran the custom defense (and, the key leaving the
  // defense out, was then reused for every other config).
  SimulationConfig config = tiny_config();
  BaselineCache plain;
  const double expected = plain.attack_free_accuracy(config);
  config.custom_defense = []() -> std::unique_ptr<defense::Aggregator> {
    throw std::runtime_error("the baseline must not build custom_defense");
  };
  BaselineCache cache;
  double baseline = 0.0;
  EXPECT_NO_THROW(baseline = cache.attack_free_accuracy(config));
  EXPECT_DOUBLE_EQ(baseline, expected);
}

TEST(BaselineCacheTest, DifferentSeedsGetDifferentEntries) {
  BaselineCache cache;
  SimulationConfig config = tiny_config();
  const double a = cache.attack_free_accuracy(config);
  config.seed = 77;
  const double b = cache.attack_free_accuracy(config);
  EXPECT_NE(a, b);
}

TEST(BaselineCacheTest, TestSizeIsPartOfTheKey) {
  // Regression: the cache key used to omit test_size, so two configs that
  // differ only in their evaluation split aliased to one entry and the
  // second caller was served the first caller's accuracy.
  BaselineCache cache;
  SimulationConfig config = tiny_config();
  cache.attack_free_accuracy(config);  // prime the cache with test_size = 80
  config.test_size = 40;
  const double shared = cache.attack_free_accuracy(config);
  BaselineCache fresh;
  const double expected = fresh.attack_free_accuracy(config);
  EXPECT_DOUBLE_EQ(shared, expected);
}

TEST(BaselineCacheTest, KeyIsBitExactForFloatFields) {
  // Regression: the key used to format beta / learning_rate with printf
  // precision, so configs whose floats differed below the printed digits
  // collided and one silently reused the other's baseline. The key must
  // distinguish any bitwise-different float.
  SimulationConfig config = tiny_config();
  SimulationConfig nudged = config;
  nudged.beta = std::nextafter(config.beta, 1.0);
  EXPECT_NE(BaselineCache::key(config), BaselineCache::key(nudged));

  nudged = config;
  nudged.client.learning_rate =
      std::nextafter(config.client.learning_rate, 1.0f);
  EXPECT_NE(BaselineCache::key(config), BaselineCache::key(nudged));

  // And identical configs must still agree, including negative-zero vs
  // zero (bitwise distinct, so distinct keys — exactness over aliasing).
  EXPECT_EQ(BaselineCache::key(config), BaselineCache::key(config));
  SimulationConfig zero = config;
  zero.beta = 0.0;
  SimulationConfig neg_zero = config;
  neg_zero.beta = -0.0;
  EXPECT_NE(BaselineCache::key(zero), BaselineCache::key(neg_zero));
}

TEST(RunExperiment, RejectsDisabledEvaluation) {
  // eval_every = 0 disables evaluation, so every accuracy metric the
  // experiment would report is NaN; run_experiment must refuse up front.
  BaselineCache cache;
  SimulationConfig config = tiny_config();
  config.eval_every = 0;
  EXPECT_THROW(run_experiment(config, AttackKind::kRandomWeights, tiny_zka(),
                              1, cache),
               std::invalid_argument);
}

TEST(RunExperiment, ProducesSaneOutcome) {
  BaselineCache cache;
  SimulationConfig config = tiny_config();
  config.defense = "mkrum";
  const ExperimentOutcome outcome =
      run_experiment(config, AttackKind::kRandomWeights, tiny_zka(), 2,
                     cache);
  EXPECT_EQ(outcome.runs, 2);
  EXPECT_GT(outcome.acc_natk, 0.0);
  EXPECT_GE(outcome.max_acc, 0.0);
  EXPECT_LE(outcome.max_acc, 100.0);
  EXPECT_FALSE(std::isnan(outcome.asr));
  EXPECT_FALSE(std::isnan(outcome.dpr));  // mKrum selects
  EXPECT_GE(outcome.asr_stddev, 0.0);
}

TEST(RunExperiment, DprNanForStatisticDefense) {
  BaselineCache cache;
  SimulationConfig config = tiny_config();
  config.defense = "median";
  const ExperimentOutcome outcome =
      run_experiment(config, AttackKind::kRandomWeights, tiny_zka(), 1,
                     cache);
  EXPECT_TRUE(std::isnan(outcome.dpr));
}

TEST(RunExperiment, RejectsZeroRuns) {
  BaselineCache cache;
  EXPECT_THROW(run_experiment(tiny_config(), AttackKind::kLie, tiny_zka(), 0,
                              cache),
               std::invalid_argument);
}

}  // namespace
}  // namespace zka::fl
