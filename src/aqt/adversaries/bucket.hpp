// Leaky-bucket ((b, r), a.k.a. (sigma, rho)) adversaries.
//
// Alongside the paper's rate-r and windowed (w, r) adversaries, much of
// the adversarial queuing literature (Cruz's network calculus; Andrews et
// al.) constrains the adversary by a *burst* parameter: for every edge and
// every interval of length L, at most b + r*L injected packets may require
// the edge.  A (w, r) adversary is a (b, r) adversary with b = r*w; the
// paper's rate-r adversary is essentially b = 1 with a ceiling.
//
// TokenBucket enforces the constraint by construction (exact rational
// token arithmetic); BucketAdversary generates random traffic under it;
// check_bucket (core/rate_check.hpp) verifies executions post-hoc with the
// same suffix-minimum trick as the rate-r checker.
#pragma once

#include <cstdint>
#include <vector>

#include "aqt/core/adversary.hpp"
#include "aqt/core/graph.hpp"
#include "aqt/core/rate_check.hpp"
#include "aqt/util/rational.hpp"
#include "aqt/util/rng.hpp"

namespace aqt {

/// Exact token bucket: capacity b (tokens, integer), refill rate r per
/// step (rational), starts full.  Tokens are tracked as an exact rational
/// so no drift ever accrues.
class TokenBucket {
 public:
  TokenBucket(std::int64_t burst, const Rat& rate);

  /// Advances the bucket to step `t` (non-decreasing) and returns whether
  /// a token is available.
  [[nodiscard]] bool can_spend(Time t);

  /// Spends one token at step `t`.  Requires can_spend(t).
  void spend(Time t);

  /// Current token count (floor), after advancing to `t`.
  [[nodiscard]] std::int64_t tokens(Time t);

 private:
  void advance(Time t);

  std::int64_t burst_;
  Rat rate_;
  Rat tokens_;
  Time clock_ = 0;
};

/// Random (b, r) traffic, feasible by construction: one token bucket per
/// edge; an injection is issued only if every edge of its route has a
/// token.
class BucketAdversary final : public Adversary {
 public:
  struct Config {
    std::int64_t burst = 1;
    Rat rate;
    std::int64_t max_route_len = 1;
    std::uint64_t seed = 1;
    std::int64_t attempts_per_step = 4;
  };

  BucketAdversary(const Graph& graph, Config config);

  void step(Time now, const Engine& engine, AdversaryStep& out) override;

  /// Output depends only on the RNG stream and bucket state.
  [[nodiscard]] bool is_oblivious() const override { return true; }

  [[nodiscard]] std::uint64_t injected() const { return injected_; }
  [[nodiscard]] std::int64_t longest_route() const { return longest_; }

 private:
  [[nodiscard]] Route random_route();

  const Graph& graph_;
  Config config_;
  Rng rng_;
  std::vector<TokenBucket> buckets_;
  std::uint64_t injected_ = 0;
  std::int64_t longest_ = 0;
};

}  // namespace aqt
