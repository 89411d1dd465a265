// Minimal stand-ins for the repo types the A-rules key on, so fixtures
// parse standalone (no repo include paths, no gtest). Only names and
// signatures matter to the analyzer; nothing here is ever linked.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace zka::util {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t operator()();
  Rng split(std::uint64_t salt) const;
  double uniform();
  double uniform(double lo, double hi);
  std::size_t uniform_index(std::size_t n);
  double normal();
  double normal(double mean, double stddev);
};

}  // namespace zka::util

namespace zka::tensor {

class Tensor {
 public:
  float* raw() noexcept;
  const float* raw() const noexcept;
  std::span<float> data() noexcept;
  std::span<const float> data() const noexcept;
};

}  // namespace zka::tensor

namespace zka::defense {

using Update = std::vector<float>;
using UpdateView = std::span<const float>;

struct AggregationResult {
  std::vector<float> model;
};

class Aggregator {
 public:
  virtual ~Aggregator() = default;
  virtual AggregationResult aggregate(
      std::span<const UpdateView> updates,
      std::span<const std::int64_t> weights) = 0;
  virtual bool supports_streaming() const noexcept;
  virtual void begin_stream(std::size_t dim,
                            std::span<const std::int64_t> weights);
  virtual void stream_update(UpdateView update);
  AggregationResult finish_stream();

 protected:
  virtual AggregationResult do_finish_stream();
};

void validate_updates(std::span<const UpdateView> updates,
                      std::span<const std::int64_t> weights);

}  // namespace zka::defense

namespace zka::attack {

using Update = std::vector<float>;

struct AttackContext {
  std::span<const float> global_model;
};

class Attack {
 public:
  virtual ~Attack() = default;
  virtual Update craft(const AttackContext& ctx) = 0;
};

void validate_context(const Attack& attack, const AttackContext& ctx);

}  // namespace zka::attack
