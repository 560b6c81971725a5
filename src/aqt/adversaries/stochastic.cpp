#include "aqt/adversaries/stochastic.hpp"

#include <algorithm>

#include "aqt/util/check.hpp"

namespace aqt {

StochasticAdversary::StochasticAdversary(const Graph& graph,
                                         StochasticConfig config)
    : graph_(graph),
      config_(config),
      rng_(config.seed),
      budget_(config.r.floor_mul(config.w)),
      recent_(graph.edge_count()) {
  AQT_REQUIRE(config_.w >= 1, "window must be >= 1");
  AQT_REQUIRE(config_.max_route_len >= 1, "route length cap must be >= 1");
  AQT_REQUIRE(budget_ >= 1,
              "floor(w*r) = 0: this (w, r) adversary cannot inject at all; "
              "choose a larger window");
  if (config_.mode == StochasticConfig::Mode::kHotspot) {
    // Deterministically pick the edge with the most route-extension options:
    // the one maximizing in-degree(tail) * out-degree(head).
    std::uint64_t best = 0;
    for (EdgeId e = 0; e < graph_.edge_count(); ++e) {
      const auto score =
          static_cast<std::uint64_t>(
              graph_.in_edges(graph_.tail(e)).size() + 1) *
          static_cast<std::uint64_t>(
              graph_.out_edges(graph_.head(e)).size() + 1);
      if (score > best) {
        best = score;
        hotspot_ = e;
      }
    }
    AQT_CHECK(hotspot_ != kNoEdge, "no edges in graph");
  }
}

Route StochasticAdversary::random_route() {
  // Grow a simple path by random forward extension; in hotspot mode, start
  // from the hotspot edge and extend on both sides.
  Route route;
  std::vector<bool> visited(graph_.node_count(), false);

  EdgeId start;
  if (config_.mode == StochasticConfig::Mode::kHotspot) {
    start = hotspot_;
  } else {
    start = static_cast<EdgeId>(rng_.below(graph_.edge_count()));
  }
  route.push_back(start);
  visited[graph_.tail(start)] = true;
  visited[graph_.head(start)] = true;

  const auto target_len = static_cast<std::size_t>(
      rng_.range(1, config_.max_route_len));

  // Extend forward.
  while (route.size() < target_len) {
    const NodeId at = graph_.head(route.back());
    const auto& outs = graph_.out_edges(at);
    if (outs.empty()) break;
    // Collect extensions that keep the path simple.
    Route options;
    for (EdgeId e : outs)
      if (!visited[graph_.head(e)]) options.push_back(e);
    if (options.empty()) break;
    const EdgeId pick = options[rng_.below(options.size())];
    visited[graph_.head(pick)] = true;
    route.push_back(pick);
  }
  // Extend backward (relevant in hotspot mode so the contended edge sits in
  // the middle of routes, not always first).
  while (route.size() < target_len) {
    const NodeId at = graph_.tail(route.front());
    const auto& ins = graph_.in_edges(at);
    if (ins.empty()) break;
    Route options;
    for (EdgeId e : ins)
      if (!visited[graph_.tail(e)]) options.push_back(e);
    if (options.empty()) break;
    const EdgeId pick = options[rng_.below(options.size())];
    visited[graph_.tail(pick)] = true;
    route.insert(route.begin(), pick);
  }
  return route;
}

bool StochasticAdversary::fits_budget(const Route& route, Time now) const {
  for (EdgeId e : route) {
    const auto& uses = recent_[e];
    // Uses within (now - w, now] count against the window ending at `now`.
    std::int64_t in_window = 0;
    for (auto it = uses.rbegin(); it != uses.rend(); ++it) {
      if (*it <= now - config_.w) break;
      ++in_window;
    }
    if (in_window + 1 > budget_) return false;
  }
  return true;
}

void StochasticAdversary::charge(const Route& route, Time now) {
  for (EdgeId e : route) {
    auto& uses = recent_[e];
    uses.push_back(now);
    while (!uses.empty() && uses.front() <= now - config_.w)
      uses.pop_front();
  }
}

void StochasticAdversary::step(Time now, const Engine&, AdversaryStep& out) {
  for (std::int64_t a = 0; a < config_.attempts_per_step; ++a) {
    Route route = random_route();
    if (!fits_budget(route, now)) continue;
    charge(route, now);
    longest_ = std::max(longest_, static_cast<std::int64_t>(route.size()));
    ++injected_;
    out.injections.push_back(Injection{std::move(route), /*tag=*/0});
  }
}

Route convoy_route(const Graph& graph, std::int64_t max_len) {
  Route path;
  NodeId at = 0;
  std::vector<bool> seen(graph.node_count(), false);
  seen[at] = true;
  while (!graph.out_edges(at).empty() &&
         path.size() < static_cast<std::size_t>(max_len)) {
    EdgeId next = kNoEdge;
    for (EdgeId e : graph.out_edges(at))
      if (!seen[graph.head(e)]) {
        next = e;
        break;
      }
    if (next == kNoEdge) break;
    path.push_back(next);
    at = graph.head(next);
    seen[at] = true;
  }
  return path;
}

ConvoyAdversary::ConvoyAdversary(Route path, std::int64_t w, Rat r)
    : path_(std::move(path)), w_(w), burst_(r.floor_mul(w)) {
  AQT_REQUIRE(w_ >= 1, "window must be >= 1");
  AQT_REQUIRE(!path_.empty(), "convoy path must be non-empty");
}

void ConvoyAdversary::step(Time now, const Engine&, AdversaryStep& out) {
  // Steps 1..burst of each aligned window carry one packet each.  Any w
  // consecutive steps contain each residue class exactly once, so every
  // sliding window sees at most `burst_` injections per edge.
  const std::int64_t phase = (now - 1) % w_;
  if (phase < burst_) out.injections.push_back(Injection{path_, /*tag=*/0});
}

}  // namespace aqt
