// Targeted backdoor extension: trigger stamping, local poisoned training,
// model-replacement boosting, and the backdoor-success metric.
#include "attack/backdoor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "data/synthetic.h"
#include "fl/metrics.h"
#include "fl/simulation.h"
#include "util/stats.h"

namespace zka::attack {
namespace {

TEST(Trigger, StampsCornerPatchOnAllChannels) {
  tensor::Tensor images({2, 3, 8, 8}, -0.5f);
  apply_trigger(images, 3);
  for (std::int64_t s = 0; s < 2; ++s) {
    for (std::int64_t c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(images.at({s, c, 0, 0}), 1.0f);
      EXPECT_FLOAT_EQ(images.at({s, c, 2, 2}), 1.0f);
      EXPECT_FLOAT_EQ(images.at({s, c, 3, 3}), -0.5f);
      EXPECT_FLOAT_EQ(images.at({s, c, 0, 3}), -0.5f);
    }
  }
}

TEST(Trigger, ClampsToImageSize) {
  tensor::Tensor images({1, 1, 2, 2}, 0.0f);
  apply_trigger(images, 10);
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    EXPECT_FLOAT_EQ(images[i], 1.0f);
  }
  tensor::Tensor not_nchw({4});
  EXPECT_THROW(apply_trigger(not_nchw, 2), std::invalid_argument);
}

TEST(BackdoorAttackTest, Validation) {
  const auto factory = models::task_model_factory(models::Task::kFashion);
  data::Dataset empty;
  empty.spec = models::fashion_spec();
  empty.images = tensor::Tensor({0, 1, 28, 28});
  EXPECT_THROW(BackdoorAttack(empty, factory, {}, 1),
               std::invalid_argument);
  const auto data =
      data::make_synthetic_dataset(models::Task::kFashion, 10, 2);
  BackdoorOptions bad;
  bad.target_label = 99;
  EXPECT_THROW(BackdoorAttack(data, factory, bad, 1), std::invalid_argument);
}

TEST(BackdoorAttackTest, BoostAmplifiesDelta) {
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const auto data =
      data::make_synthetic_dataset(models::Task::kFashion, 32, 3);
  const std::vector<float> global = nn::get_flat_params(*factory(5));
  AttackContext ctx;
  ctx.global_model = global;
  ctx.prev_global_model = global;

  BackdoorOptions plain;
  plain.boost = 1.0f;
  BackdoorAttack a(data, factory, plain, 7);
  BackdoorOptions boosted = plain;
  boosted.boost = 5.0f;
  BackdoorAttack b(data, factory, boosted, 7);

  const double d_plain = util::l2_distance(a.craft(ctx), global);
  const double d_boost = util::l2_distance(b.craft(ctx), global);
  EXPECT_NEAR(d_boost, 5.0 * d_plain, 0.2 * 5.0 * d_plain);
}

TEST(BackdoorAttackTest, ImplantsBackdoorUnderFedAvg) {
  fl::SimulationConfig config;
  config.num_clients = 20;
  config.clients_per_round = 8;
  config.rounds = 8;
  config.train_size = 500;
  config.test_size = 200;
  config.malicious_fraction = 0.25;
  config.seed = 13;

  fl::Simulation sim(config);
  BackdoorOptions options;
  options.target_label = 6;
  options.poison_fraction = 0.6;
  options.boost = 4.0f;  // model replacement against 8-client averaging
  BackdoorAttack attack(sim.malicious_data(),
                        models::task_model_factory(config.task), options,
                        17);
  const auto result = sim.run(&attack);

  // The model must still mostly work on clean data (targeted attack)...
  EXPECT_GT(result.max_accuracy, 0.35);

  // ...but the trigger must flip predictions to the target class far more
  // often than for the attack-free model.
  const auto factory = models::task_model_factory(config.task);
  fl::SimulationConfig clean_config = config;
  clean_config.malicious_fraction = 0.0;
  fl::Simulation clean_sim(clean_config);
  const auto clean_result = clean_sim.run(nullptr);

  const double rate_attacked = fl::backdoor_success_rate(
      factory, result.final_model, sim.test_data(), options.target_label,
      options.trigger_size);
  const double rate_clean = fl::backdoor_success_rate(
      factory, clean_result.final_model, clean_sim.test_data(),
      options.target_label, options.trigger_size);
  EXPECT_GT(rate_attacked, rate_clean + 0.15);
  EXPECT_GT(rate_attacked, 0.3);
}

TEST(BackdoorMetric, PerfectBackdoorDetected) {
  // A "model" that always answers the target class gives rate 1.
  const auto test_set =
      data::make_synthetic_dataset(models::Task::kFashion, 60, 29);
  const auto factory = models::task_model_factory(models::Task::kFashion);
  auto model = factory(2);
  // Drive the final layer bias to a huge value for class 4.
  auto params = nn::get_flat_params(*model);
  // Final bias is the last 10 entries of the flat vector.
  for (std::size_t i = params.size() - 10; i < params.size(); ++i) {
    params[i] = -100.0f;
  }
  params[params.size() - 10 + 4] = 100.0f;
  const double rate =
      fl::backdoor_success_rate(factory, params, test_set, 4, 4);
  EXPECT_NEAR(rate, 1.0, 1e-9);
}

TEST(BackdoorMetric, ExcludesTargetClassImages) {
  // Dataset containing only the target class -> NaN (no eligible images).
  data::Dataset only_target;
  only_target.spec = models::fashion_spec();
  only_target.images = tensor::Tensor({3, 1, 28, 28});
  only_target.labels = {5, 5, 5};
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const auto params = nn::get_flat_params(*factory(3));
  EXPECT_TRUE(std::isnan(
      fl::backdoor_success_rate(factory, params, only_target, 5, 4)));
}

TEST(BackdoorMetric, RejectsNonPositiveBatchSize) {
  // Regression: the batch loop had no guard. batch_size = 0 never advanced
  // it, and the call only stopped if some layer happened to reject the
  // empty batch; a negative size walked off the dataset.
  const auto test_set =
      data::make_synthetic_dataset(models::Task::kFashion, 20, 31);
  const auto factory = models::task_model_factory(models::Task::kFashion);
  const auto params = nn::get_flat_params(*factory(4));
  EXPECT_THROW(fl::backdoor_success_rate(factory, params, test_set, 4, 4, 0),
               std::invalid_argument);
  for (const std::int64_t batch_size : {0, -3}) {
    try {
      fl::backdoor_success_rate(factory, params, test_set, 4, 4, batch_size);
      ADD_FAILURE() << "batch_size " << batch_size << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("batch_size"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace zka::attack
