// DnC — Divide-and-Conquer spectral defense (Shejwalkar & Houmansadr,
// NDSS 2021; the defense proposed alongside the Min-Max attack) —
// extension defense.
//
// Each filtering iteration subsamples a random block of coordinates,
// centers the *currently accepted* updates there, finds the dominant
// right singular direction by power iteration, scores each survivor by
// its squared projection onto it, and discards the c*f highest-scoring
// ones — so every iteration's filter budget lands on fresh candidates
// instead of re-discarding the same extreme outlier. The final accepted
// set is their unweighted mean (a vetted committee, like mKrum/Bulyan);
// if tiny rounds filter everything, the single lowest-score update of
// the last iteration is selected as a fallback. With sanitizing off, a row
// with a non-finite sampled coordinate scores NaN, ranks last and is
// discarded first.
#pragma once

#include "defense/aggregator.h"
#include "util/rng.h"

namespace zka::defense {

struct DncOptions {
  std::size_t num_byzantine = 2;   // f
  double filter_fraction = 1.0;    // c: discard c*f per iteration
  std::size_t subsample_dim = 8192;  // b: coordinates per iteration
  int iterations = 3;
  int power_iterations = 30;
};

class Dnc : public Aggregator {
 public:
  explicit Dnc(DncOptions options, std::uint64_t seed = 0xd4c)
      : options_(options), rng_(seed) {}

  AggregationResult do_aggregate(std::span<const UpdateView> updates,
                              std::span<const std::int64_t> weights) override;
  bool selects_clients() const noexcept override { return true; }
  std::string name() const override { return "DnC"; }

 private:
  DncOptions options_;
  util::Rng rng_;
};

}  // namespace zka::defense
