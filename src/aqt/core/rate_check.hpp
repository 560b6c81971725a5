// Exact feasibility checkers for adversary rate constraints.
//
// Two adversary classes appear in the paper:
//
//  * rate-r adversary (§2, used for the instability results): for every
//    interval of length L and every edge e, at most ceil(r*L) injected
//    packets may require e.
//  * (w, r) adversary (Definition 2.1, used for the stability results): in
//    every window of w consecutive steps, at most r*w injected packets may
//    require e (an integer count, so at most floor(r*w)).
//
// Feasibility is checked over the *final effective routes at injection
// time* — the object Lemma 3.3's rerouting argument reasons about — so a
// composed adversary that reroutes packets is verified as a whole.
//
// The rate-r check is exact and O(k) per edge after sorting: with r = p/q
// and injection times t_1 <= ... <= t_k for an edge, interval [t_i, t_j]
// contains k' = j-i+1 injections and violates the constraint iff
//     k' > ceil(p*(t_j - t_i + 1)/q)   <=>   u_j - u_i >= p,
// where u_x = q*x - p*t_x.  So the constraint holds iff
//     max_j ( u_j - min_{i<=j} u_i ) < p.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aqt/core/graph.hpp"
#include "aqt/core/types.hpp"
#include "aqt/util/rational.hpp"

namespace aqt {

/// Injection log: per-edge injection times of packets whose (effective)
/// route uses the edge.  Populated by the engine when auditing is enabled,
/// or by hand in tests.
class RateAudit {
 public:
  explicit RateAudit(std::size_t edge_count) : per_edge_(edge_count) {}

  /// Record a packet injected at `t` whose final route is `route`.
  void add(RouteSpan route, Time t);

  /// Record only for edge `e`.
  void add_edge(EdgeId e, Time t);

  [[nodiscard]] const std::vector<Time>& times(EdgeId e) const {
    return per_edge_[e];
  }
  [[nodiscard]] std::size_t edge_count() const { return per_edge_.size(); }

  /// Total logged (edge, time) entries.
  [[nodiscard]] std::uint64_t entries() const { return entries_; }

 private:
  std::vector<std::vector<Time>> per_edge_;
  std::uint64_t entries_ = 0;
};

/// Result of a feasibility check.  When !ok, the witness fields identify a
/// violating edge and interval.
struct RateCheckResult {
  bool ok = true;
  EdgeId edge = kNoEdge;
  Time t1 = 0;
  Time t2 = 0;
  std::int64_t count = 0;   ///< Injections for `edge` within [t1, t2].
  std::int64_t budget = 0;  ///< Allowed maximum for that interval.

  [[nodiscard]] std::string describe(const Graph& g) const;
};

/// Exact rate-r feasibility (every interval, every edge).
RateCheckResult check_rate_r(const RateAudit& audit, const Rat& r);

/// Exact (w, r) feasibility: every w-step window holds at most floor(w*r)
/// injections per edge.
RateCheckResult check_window(const RateAudit& audit, std::int64_t w,
                             const Rat& r);

/// Exact (b, r) token-bucket feasibility, the (sigma, rho)-bounded
/// adversary: every interval [t1, t2] holds at most floor(b + r*(t2-t1+1))
/// injections per edge.
RateCheckResult check_bucket(const RateAudit& audit, std::int64_t burst,
                             const Rat& r);

/// The tightest rate at which this audit would be feasible, as the maximum
/// over edges and intervals of count/length (a diagnostic; returned as a
/// double since it is only reported, never used in a constraint).
double empirical_rate(const RateAudit& audit);

/// Incremental rate-r checker: O(1) amortized per injection and O(edges)
/// memory, for long runs where buffering the whole audit is too costly.
///
/// Feed injections in non-decreasing time order (per edge); `ok()` flips to
/// false permanently at the first violation.  Caveat versus the post-hoc
/// checker: it sees routes *as injected* — if packets are later rerouted,
/// feed the extension edges at the original injection time via add_edge
/// when the reroute is issued (what LegalityCheckedAdversary-style wrappers
/// can do), or fall back to the post-hoc audit.
class OnlineRateChecker {
 public:
  OnlineRateChecker(std::size_t edge_count, const Rat& r);

  /// Records one injection requiring `e` at time `t`; returns ok().
  bool add_edge(EdgeId e, Time t);
  /// Records an injection with this route at time `t`; returns ok().
  bool add(RouteSpan route, Time t);

  [[nodiscard]] bool ok() const { return result_.ok; }
  /// First violation (valid when !ok()).
  [[nodiscard]] const RateCheckResult& violation() const { return result_; }

 private:
  struct EdgeState {
    std::int64_t count = 0;       ///< Injections so far.
    std::int64_t min_u = 0;       ///< min over i of q*i - p*t_i.
    Time min_u_time = 0;          ///< t_i attaining the minimum (witness).
    std::int64_t min_u_index = 0;  ///< i attaining the minimum.
    Time last_time = 0;
    bool any = false;
  };

  std::int64_t p_;
  std::int64_t q_;
  std::vector<EdgeState> state_;
  RateCheckResult result_;
};

}  // namespace aqt
