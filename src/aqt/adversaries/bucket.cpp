#include "aqt/adversaries/bucket.hpp"

#include <algorithm>

#include "aqt/util/check.hpp"

namespace aqt {

TokenBucket::TokenBucket(std::int64_t burst, const Rat& rate)
    : burst_(burst), rate_(rate), tokens_(burst) {
  AQT_REQUIRE(burst >= 1, "bucket burst must be >= 1");
  AQT_REQUIRE(rate.num() > 0, "bucket rate must be positive");
}

void TokenBucket::advance(Time t) {
  AQT_REQUIRE(t >= clock_, "token bucket moved backwards");
  if (t == clock_) return;
  tokens_ = tokens_ + rate_ * Rat(t - clock_);
  if (tokens_ > Rat(burst_)) tokens_ = Rat(burst_);
  clock_ = t;
}

bool TokenBucket::can_spend(Time t) {
  advance(t);
  return tokens_ >= Rat(1);
}

void TokenBucket::spend(Time t) {
  advance(t);
  AQT_REQUIRE(tokens_ >= Rat(1), "spending an empty bucket");
  tokens_ -= Rat(1);
}

std::int64_t TokenBucket::tokens(Time t) {
  advance(t);
  return tokens_.floor();
}

BucketAdversary::BucketAdversary(const Graph& graph, Config config)
    : graph_(graph), config_(config), rng_(config.seed) {
  AQT_REQUIRE(config_.max_route_len >= 1, "route length cap must be >= 1");
  buckets_.reserve(graph.edge_count());
  for (EdgeId e = 0; e < graph.edge_count(); ++e)
    buckets_.emplace_back(config_.burst, config_.rate);
}

Route BucketAdversary::random_route() {
  Route route;
  std::vector<bool> visited(graph_.node_count(), false);
  const EdgeId start = static_cast<EdgeId>(rng_.below(graph_.edge_count()));
  route.push_back(start);
  visited[graph_.tail(start)] = true;
  visited[graph_.head(start)] = true;
  const auto target_len =
      static_cast<std::size_t>(rng_.range(1, config_.max_route_len));
  while (route.size() < target_len) {
    const auto& outs = graph_.out_edges(graph_.head(route.back()));
    Route options;
    for (EdgeId e : outs)
      if (!visited[graph_.head(e)]) options.push_back(e);
    if (options.empty()) break;
    const EdgeId pick = options[rng_.below(options.size())];
    visited[graph_.head(pick)] = true;
    route.push_back(pick);
  }
  return route;
}

void BucketAdversary::step(Time now, const Engine&, AdversaryStep& out) {
  for (std::int64_t a = 0; a < config_.attempts_per_step; ++a) {
    Route route = random_route();
    bool ok = true;
    for (EdgeId e : route)
      if (!buckets_[e].can_spend(now)) {
        ok = false;
        break;
      }
    if (!ok) continue;
    for (EdgeId e : route) buckets_[e].spend(now);
    longest_ = std::max(longest_, static_cast<std::int64_t>(route.size()));
    ++injected_;
    out.injections.push_back(Injection{std::move(route), /*tag=*/0});
  }
}

}  // namespace aqt
