#include "fl/metrics.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "attack/backdoor.h"
#include "nn/loss.h"
#include "util/check.h"

namespace zka::fl {

double attack_success_rate(double acc_natk, double acc_max) noexcept {
  if (acc_natk <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  return (acc_natk - acc_max) / acc_natk * 100.0;
}

double defense_pass_rate(std::int64_t passed, std::int64_t selected) noexcept {
  if (selected <= 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(passed) / static_cast<double>(selected) * 100.0;
}

double evaluate_accuracy(const models::ModelFactory& factory,
                         std::span<const float> params,
                         const data::Dataset& dataset,
                         std::int64_t batch_size) {
  ZKA_CHECK(batch_size > 0, "evaluate_accuracy: batch_size %lld",
            static_cast<long long>(batch_size));
  auto model = factory(0);
  nn::set_flat_params(*model, params);
  const std::int64_t n = dataset.size();
  if (n == 0) return 0.0;
  std::int64_t hits = 0;
  for (std::int64_t begin = 0; begin < n; begin += batch_size) {
    const std::int64_t end = std::min(begin + batch_size, n);
    const tensor::Tensor batch = dataset.images.slice0(begin, end);
    const auto preds = model->forward(batch).argmax_rows();
    for (std::int64_t i = begin; i < end; ++i) {
      if (preds[static_cast<std::size_t>(i - begin)] ==
          dataset.labels[static_cast<std::size_t>(i)]) {
        ++hits;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

std::int64_t ConfusionMatrix::at(std::int64_t truth,
                                 std::int64_t predicted) const {
  if (truth < 0 || truth >= num_classes || predicted < 0 ||
      predicted >= num_classes) {
    throw std::out_of_range("ConfusionMatrix::at: class out of range");
  }
  return counts[static_cast<std::size_t>(truth * num_classes + predicted)];
}

std::vector<double> ConfusionMatrix::per_class_accuracy() const {
  std::vector<double> acc(static_cast<std::size_t>(num_classes));
  for (std::int64_t c = 0; c < num_classes; ++c) {
    std::int64_t row_total = 0;
    for (std::int64_t p = 0; p < num_classes; ++p) row_total += at(c, p);
    acc[static_cast<std::size_t>(c)] =
        row_total > 0 ? static_cast<double>(at(c, c)) / row_total
                      : std::numeric_limits<double>::quiet_NaN();
  }
  return acc;
}

double ConfusionMatrix::accuracy() const noexcept {
  std::int64_t total = 0;
  std::int64_t hits = 0;
  for (std::int64_t c = 0; c < num_classes; ++c) {
    for (std::int64_t p = 0; p < num_classes; ++p) {
      const std::int64_t n =
          counts[static_cast<std::size_t>(c * num_classes + p)];
      total += n;
      if (c == p) hits += n;
    }
  }
  return total > 0 ? static_cast<double>(hits) / total : 0.0;
}

std::int64_t ConfusionMatrix::most_predicted_class() const {
  std::int64_t best = 0;
  std::int64_t best_count = -1;
  for (std::int64_t p = 0; p < num_classes; ++p) {
    std::int64_t column = 0;
    for (std::int64_t c = 0; c < num_classes; ++c) column += at(c, p);
    if (column > best_count) {
      best_count = column;
      best = p;
    }
  }
  return best;
}

ConfusionMatrix evaluate_confusion(const models::ModelFactory& factory,
                                   std::span<const float> params,
                                   const data::Dataset& dataset,
                                   std::int64_t batch_size) {
  ZKA_CHECK(batch_size > 0 && dataset.spec.num_classes > 0,
            "evaluate_confusion: batch_size %lld, %lld classes",
            static_cast<long long>(batch_size),
            static_cast<long long>(dataset.spec.num_classes));
  auto model = factory(0);
  nn::set_flat_params(*model, params);
  ConfusionMatrix cm;
  cm.num_classes = dataset.spec.num_classes;
  cm.counts.assign(
      static_cast<std::size_t>(cm.num_classes * cm.num_classes), 0);
  const std::int64_t n = dataset.size();
  for (std::int64_t begin = 0; begin < n; begin += batch_size) {
    const std::int64_t end = std::min(begin + batch_size, n);
    const tensor::Tensor batch = dataset.images.slice0(begin, end);
    const auto preds = model->forward(batch).argmax_rows();
    for (std::int64_t i = begin; i < end; ++i) {
      const std::int64_t truth =
          dataset.labels[static_cast<std::size_t>(i)];
      const std::int64_t predicted =
          preds[static_cast<std::size_t>(i - begin)];
      cm.counts[static_cast<std::size_t>(truth * cm.num_classes +
                                         predicted)] += 1;
    }
  }
  return cm;
}

double backdoor_success_rate(const models::ModelFactory& factory,
                             std::span<const float> params,
                             const data::Dataset& clean_test,
                             std::int64_t target_label,
                             std::int64_t trigger_size,
                             std::int64_t batch_size) {
  ZKA_CHECK(batch_size > 0, "backdoor_success_rate: batch_size %lld",
            static_cast<long long>(batch_size));
  // Build the triggered copy of all non-target-class test images.
  std::vector<std::int64_t> eligible;
  eligible.reserve(static_cast<std::size_t>(clean_test.size()));
  for (std::int64_t i = 0; i < clean_test.size(); ++i) {
    if (clean_test.labels[static_cast<std::size_t>(i)] != target_label) {
      eligible.push_back(i);
    }
  }
  if (eligible.empty()) return std::numeric_limits<double>::quiet_NaN();
  data::Dataset triggered = clean_test.subset(eligible);
  attack::apply_trigger(triggered.images, trigger_size);

  auto model = factory(0);
  nn::set_flat_params(*model, params);
  std::int64_t hits = 0;
  const std::int64_t n = triggered.size();
  for (std::int64_t begin = 0; begin < n; begin += batch_size) {
    const std::int64_t end = std::min(begin + batch_size, n);
    const auto preds =
        model->forward(triggered.images.slice0(begin, end)).argmax_rows();
    for (const auto p : preds) {
      if (p == target_label) ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

}  // namespace zka::fl
