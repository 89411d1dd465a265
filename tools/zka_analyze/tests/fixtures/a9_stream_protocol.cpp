// zka-fixture-path: src/fixture/a9_stream_protocol.cpp
// A9 positive + negative: stream calls with no dominating begin_stream
// (directly and through a callee -- reported at the unguarded entry
// point), and a do_finish_stream hook (the implementation behind the
// non-virtual finish_stream) folding through hash-ordered state.
#include "fixture_support.h"

using zka::defense::AggregationResult;
using zka::defense::Aggregator;
using zka::defense::UpdateView;

namespace {

void push_one(Aggregator& agg, UpdateView u) {
  agg.stream_update(u);  // interior: reported at the unguarded caller
}

float fold_buckets(const std::unordered_map<int, float>& buckets) {
  float total = 0.0f;
  for (auto it = buckets.begin(); it != buckets.end(); ++it) {  // expect: A9
    total += it->second;
  }
  return total;
}

}  // namespace

void bad_unguarded_stream(Aggregator& agg, UpdateView u) {
  agg.stream_update(u);  // expect: A9
}

void bad_unguarded_through_callee(Aggregator& agg, UpdateView u) {
  push_one(agg, u);  // expect: A9
}

AggregationResult good_guarded_stream(
    Aggregator& agg, std::span<const UpdateView> updates,
    std::span<const std::int64_t> weights) {
  agg.begin_stream(updates.empty() ? 0 : updates[0].size(), weights);
  for (const UpdateView& u : updates) {
    agg.stream_update(u);  // dominated by begin_stream: fine
  }
  return agg.finish_stream();
}

class BadFold : public Aggregator {
 public:
  AggregationResult aggregate(std::span<const UpdateView> updates,
                              std::span<const std::int64_t> weights) override {
    zka::defense::validate_updates(updates, weights);
    return {};
  }
  AggregationResult do_finish_stream() override {
    AggregationResult r;
    r.model.push_back(fold_buckets(buckets_));
    return r;
  }

 private:
  std::unordered_map<int, float> buckets_;
};
