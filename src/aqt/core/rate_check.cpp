#include "aqt/core/rate_check.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "aqt/util/check.hpp"

namespace aqt {

void RateAudit::add(RouteSpan route, Time t) {
  for (EdgeId e : route) add_edge(e, t);
}

void RateAudit::add_edge(EdgeId e, Time t) {
  AQT_REQUIRE(e < per_edge_.size(), "edge id out of range in audit: " << e);
  per_edge_[e].push_back(t);
  ++entries_;
}

std::string RateCheckResult::describe(const Graph& g) const {
  if (ok) return "feasible";
  std::ostringstream os;
  os << "edge "
     << (edge < g.edge_count() ? g.edge(edge).name : std::to_string(edge))
     << " carries " << count << " injections in [" << t1 << ", " << t2
     << "] but the budget is " << budget;
  return os.str();
}

RateCheckResult check_rate_r(const RateAudit& audit, const Rat& r) {
  const std::int64_t p = r.num();
  const std::int64_t q = r.den();
  AQT_REQUIRE(p >= 0, "negative rate");

  for (EdgeId e = 0; e < audit.edge_count(); ++e) {
    std::vector<Time> t = audit.times(e);
    if (t.empty()) continue;
    std::sort(t.begin(), t.end());

    if (p == 0) {
      // Budget is ceil(0 * L) = 0 on every interval; one packet violates.
      RateCheckResult res;
      res.ok = false;
      res.edge = e;
      res.t1 = res.t2 = t.front();
      res.count = 1;
      res.budget = 0;
      return res;
    }

    // With u_x = q*x - p*t_x (x = 1-based position in sorted order), the
    // interval [t_i, t_j] violates "count <= ceil(r * length)" iff
    // u_j - u_i >= p.  Scan once, keeping the minimum u_i seen so far.
    std::int64_t best_u = std::numeric_limits<std::int64_t>::max();
    std::size_t best_i = 0;
    for (std::size_t x = 0; x < t.size(); ++x) {
      const std::int64_t u = q * static_cast<std::int64_t>(x + 1) - p * t[x];
      if (best_u != std::numeric_limits<std::int64_t>::max() &&
          u - best_u >= p) {
        RateCheckResult res;
        res.ok = false;
        res.edge = e;
        res.t1 = t[best_i];
        res.t2 = t[x];
        res.count = static_cast<std::int64_t>(x - best_i + 1);
        res.budget = r.ceil_mul(res.t2 - res.t1 + 1);
        AQT_CHECK(res.count > res.budget, "rate witness inconsistent");
        return res;
      }
      if (u < best_u) {
        best_u = u;
        best_i = x;
      }
    }
  }
  return RateCheckResult{};
}

RateCheckResult check_window(const RateAudit& audit, std::int64_t w,
                             const Rat& r) {
  AQT_REQUIRE(w >= 1, "window must be >= 1");
  const std::int64_t budget = r.floor_mul(w);
  for (EdgeId e = 0; e < audit.edge_count(); ++e) {
    std::vector<Time> t = audit.times(e);
    if (t.empty()) continue;
    std::sort(t.begin(), t.end());
    std::size_t i = 0;
    for (std::size_t j = 0; j < t.size(); ++j) {
      while (t[j] - t[i] + 1 > w) ++i;
      const auto count = static_cast<std::int64_t>(j - i + 1);
      if (count > budget) {
        RateCheckResult res;
        res.ok = false;
        res.edge = e;
        res.t1 = t[i];
        res.t2 = t[j];
        res.count = count;
        res.budget = budget;
        return res;
      }
    }
  }
  return RateCheckResult{};
}

RateCheckResult check_bucket(const RateAudit& audit, std::int64_t burst,
                             const Rat& r) {
  AQT_REQUIRE(burst >= 0, "negative burst");
  const std::int64_t p = r.num();
  const std::int64_t q = r.den();
  AQT_REQUIRE(p > 0, "bucket check needs a positive rate");

  for (EdgeId e = 0; e < audit.edge_count(); ++e) {
    std::vector<Time> t = audit.times(e);
    if (t.empty()) continue;
    std::sort(t.begin(), t.end());

    // With u_x = q*x - p*t_x, the interval [t_i, t_j] violates
    // "count <= floor(b + r*length)" iff u_j - u_i > q*b - q + p.
    const std::int64_t threshold = q * burst - q + p;
    std::int64_t best_u = std::numeric_limits<std::int64_t>::max();
    std::size_t best_i = 0;
    for (std::size_t x = 0; x < t.size(); ++x) {
      const std::int64_t u = q * static_cast<std::int64_t>(x + 1) - p * t[x];
      if (u < best_u) {
        best_u = u;
        best_i = x;
      }
      // i == x is a legal witness here (a single packet can violate b=0,
      // though we require b >= 1 in generators).
      if (u - best_u > threshold) {
        RateCheckResult res;
        res.ok = false;
        res.edge = e;
        res.t1 = t[best_i];
        res.t2 = t[x];
        res.count = static_cast<std::int64_t>(x - best_i + 1);
        res.budget =
            (Rat(burst) + r * Rat(res.t2 - res.t1 + 1)).floor();
        AQT_CHECK(res.count > res.budget, "bucket witness inconsistent");
        return res;
      }
    }
  }
  return RateCheckResult{};
}

OnlineRateChecker::OnlineRateChecker(std::size_t edge_count, const Rat& r)
    : p_(r.num()), q_(r.den()), state_(edge_count) {
  AQT_REQUIRE(p_ > 0, "online checker needs a positive rate");
}

bool OnlineRateChecker::add_edge(EdgeId e, Time t) {
  if (!result_.ok) return false;
  AQT_REQUIRE(e < state_.size(), "edge id out of range: " << e);
  EdgeState& s = state_[e];
  AQT_REQUIRE(!s.any || t >= s.last_time,
              "online checker needs non-decreasing times per edge");
  s.last_time = t;
  ++s.count;
  const std::int64_t u = q_ * s.count - p_ * t;
  if (s.any && u - s.min_u >= p_) {
    result_.ok = false;
    result_.edge = e;
    result_.t1 = s.min_u_time;
    result_.t2 = t;
    result_.count = s.count - s.min_u_index + 1;
    result_.budget = Rat(p_, q_).ceil_mul(t - s.min_u_time + 1);
    return false;
  }
  if (!s.any || u < s.min_u) {
    s.min_u = u;
    s.min_u_time = t;
    s.min_u_index = s.count;
    s.any = true;
  }
  return true;
}

bool OnlineRateChecker::add(RouteSpan route, Time t) {
  for (EdgeId e : route)
    if (!add_edge(e, t)) return false;
  return true;
}

double empirical_rate(const RateAudit& audit) {
  // Infimum rate r for which the audit is rate-r feasible: the constraint
  // "count <= ceil(r * L)" on an interval with `count` injections spanning
  // L steps holds for every r > (count - 1) / L.  Diagnostic only; O(k^2)
  // per edge, intended for small audits.
  double best = 0.0;
  for (EdgeId e = 0; e < audit.edge_count(); ++e) {
    std::vector<Time> t = audit.times(e);
    if (t.size() < 2) continue;
    std::sort(t.begin(), t.end());
    for (std::size_t i = 0; i < t.size(); ++i) {
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        const double need = static_cast<double>(j - i) /
                            static_cast<double>(t[j] - t[i] + 1);
        best = std::max(best, need);
      }
    }
  }
  return best;
}

}  // namespace aqt
