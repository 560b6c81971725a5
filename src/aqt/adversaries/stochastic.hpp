// Stochastic and deterministic (w, r) traffic generators (Definition 2.1).
//
// The stability theorems of §4 hold against *every* (w, r) adversary, so the
// experiment suite corroborates them with the most aggressive generators we
// can build.  Feasibility is enforced by construction — an injection is
// issued only if every edge of its route has spare budget in the trailing
// w-step window — and re-verified post-hoc by check_window().
//
// Modes:
//  * uniform  — random simple routes anywhere in the graph;
//  * hotspot  — every route is forced through one contended edge, the
//               single-bottleneck worst case;
//  * convoy   — deterministic: saturates one fixed long path with maximal
//               bursts at window-aligned steps (the classic pile-up
//               pattern).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "aqt/core/adversary.hpp"
#include "aqt/core/graph.hpp"
#include "aqt/util/rational.hpp"
#include "aqt/util/rng.hpp"

namespace aqt {

struct StochasticConfig {
  std::int64_t w = 1;           ///< Window size.
  Rat r;                        ///< Rate; per-edge budget is floor(w*r).
  std::int64_t max_route_len = 1;  ///< The d parameter (route length cap).
  std::uint64_t seed = 1;
  /// Injection attempts per step; higher = closer to saturating the budget.
  std::int64_t attempts_per_step = 4;
  enum class Mode { kUniform, kHotspot } mode = Mode::kUniform;
};

/// Random maximal-ish (w, r) traffic, feasible by construction.
class StochasticAdversary final : public Adversary {
 public:
  StochasticAdversary(const Graph& graph, StochasticConfig config);

  void step(Time now, const Engine& engine, AdversaryStep& out) override;

  /// Output depends only on the RNG stream and internal window state.
  [[nodiscard]] bool is_oblivious() const override { return true; }

  /// Longest route actually injected so far (<= max_route_len).
  [[nodiscard]] std::int64_t longest_route() const { return longest_; }
  [[nodiscard]] std::uint64_t injected() const { return injected_; }

 private:
  [[nodiscard]] Route random_route();
  [[nodiscard]] bool fits_budget(const Route& route, Time now) const;
  void charge(const Route& route, Time now);

  const Graph& graph_;
  StochasticConfig config_;
  Rng rng_;
  std::int64_t budget_;
  EdgeId hotspot_ = kNoEdge;
  std::vector<std::deque<Time>> recent_;  ///< Per-edge uses in last window.
  std::int64_t longest_ = 0;
  std::uint64_t injected_ = 0;
};

/// The convoy's route: the simple forward path from node 0 that takes the
/// first out-edge to an unvisited node at every step, capped at `max_len`
/// edges.  Empty when node 0 has no such edge; callers report that in
/// their own terms.
[[nodiscard]] Route convoy_route(const Graph& graph, std::int64_t max_len);

/// Deterministic worst-case (w, r) pattern: at the first floor(w*r) steps of
/// every aligned window, inject one packet along a fixed path (all packets
/// share all edges — the maximal legal pile-up on that path).
class ConvoyAdversary final : public Adversary {
 public:
  /// `path` must be a simple path; every packet takes the whole path.
  ConvoyAdversary(Route path, std::int64_t w, Rat r);

  void step(Time now, const Engine& engine, AdversaryStep& out) override;

  /// Deterministic function of `now` alone.
  [[nodiscard]] bool is_oblivious() const override { return true; }

 private:
  Route path_;
  std::int64_t w_;
  std::int64_t burst_;  ///< floor(w*r).
};

}  // namespace aqt
