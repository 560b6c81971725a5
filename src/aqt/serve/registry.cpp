#include "aqt/serve/registry.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "aqt/adversaries/bucket.hpp"
#include "aqt/adversaries/lps.hpp"
#include "aqt/adversaries/stochastic.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/core/rate_check.hpp"
#include "aqt/topology/spec.hpp"
#include "aqt/trace/trace.hpp"
#include "aqt/util/check.hpp"

namespace aqt {
namespace serve {
namespace {

/// Resolves edge names; each unknown one is a dangling-edge finding.
std::optional<Route> resolve_edges(const Graph& g,
                                   const std::vector<std::string>& names,
                                   const std::string& at, const char* what,
                                   std::vector<std::string>& findings) {
  Route route;
  route.reserve(names.size());
  bool ok = true;
  for (const std::string& name : names) {
    if (const auto e = g.find_edge(name)) {
      route.push_back(*e);
    } else {
      findings.push_back(at + ": dangling-edge: " + what + " names edge '" +
                         name + "', which does not exist in this topology");
      ok = false;
    }
  }
  if (!ok) return std::nullopt;
  return route;
}

/// The scripted adversary's events as a replayable Trace, checked against
/// the graph, the protocol, `steps` and the declared audit.  Every finding
/// is collected; any finding rejects the request with SRV009, one line per
/// finding, each naming its event and the finding.
Trace compile_script(const RunRequest& req, const Graph& g) {
  const std::vector<ScriptEvent>& events = req.adversary.events;
  std::vector<std::string> findings;
  const auto at = [](std::size_t i) {
    return "events[" + std::to_string(i) + "]";
  };
  const bool historic = make_protocol(req.protocol)->is_historic();

  // The event index of each injection, by creation ordinal, and each
  // event's edges once they pass its checks.
  std::vector<std::size_t> injection_at;
  std::vector<std::optional<Route>> resolved(events.size());
  std::size_t injection_count = 0;
  for (const ScriptEvent& ev : events) injection_count += ev.reroute ? 0 : 1;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const ScriptEvent& ev = events[i];
    if (i > 0 && ev.t < events[i - 1].t)
      findings.push_back(at(i) + ": event-out-of-order: t=" +
                         std::to_string(ev.t) + " follows t=" +
                         std::to_string(events[i - 1].t) +
                         "; events are listed in non-decreasing t");
    if (ev.t > req.steps)
      findings.push_back(at(i) + ": event-after-steps: t=" +
                         std::to_string(ev.t) + " but the run has steps=" +
                         std::to_string(req.steps));
    if (!ev.reroute) {
      auto route = resolve_edges(g, ev.edges, at(i), "route", findings);
      if (route && !g.is_path(*route)) {
        findings.push_back(at(i) +
                           ": route-not-path: the route is not contiguous "
                           "(the head of each edge must be the tail of the "
                           "next)");
        route.reset();
      } else if (route && !g.is_simple_path(*route)) {
        findings.push_back(at(i) +
                           ": route-not-simple: the route revisits a node; "
                           "the model (paper section 2) requires simple "
                           "routes");
        route.reset();
      }
      resolved[i] = std::move(route);
      injection_at.push_back(i);
      continue;
    }
    if (!historic)
      findings.push_back(at(i) + ": reroute-nonhistoric: protocol " +
                         req.protocol +
                         " is not historic; Lemma 3.3 licenses rerouting "
                         "only for historic protocols (Definition 3.1)");
    if (ev.packet >= injection_count) {
      findings.push_back(at(i) + ": reroute-unknown-packet: packet " +
                         std::to_string(ev.packet) +
                         " but the request injects only " +
                         std::to_string(injection_count) + " packets");
      continue;
    }
    // A reroute targets an injection listed before it (a later one has
    // t >= its own), so the target is already in `injection_at` unless
    // the order is wrong, which is reported above.
    const std::size_t target = ev.packet < injection_at.size()
                                   ? injection_at[ev.packet]
                                   : events.size();
    if (target == events.size() || ev.t <= events[target].t) {
      findings.push_back(
          at(i) + ": reroute-too-early: reroute at t=" + std::to_string(ev.t) +
          " targets packet " + std::to_string(ev.packet) +
          (target == events.size()
               ? std::string(", which is injected later")
               : " injected at t=" + std::to_string(events[target].t)) +
          "; reroutes apply before same-step injections, so the target "
          "exists only from the step after its injection");
      if (target == events.size()) continue;
    }
    auto suffix = resolve_edges(g, ev.edges, at(i), "suffix", findings);
    if (!suffix) continue;
    if (!g.is_path(*suffix)) {
      findings.push_back(at(i) + ": route-not-path: the suffix is not "
                                 "contiguous");
      continue;
    }
    // The suffix splices after a traversed prefix of the target's route,
    // so its first edge must leave a node that route reaches.
    if (resolved[target]) {
      bool splices = false;
      for (const EdgeId e : *resolved[target])
        splices = splices || g.head(e) == g.tail(suffix->front());
      if (!splices) {
        findings.push_back(at(i) + ": reroute-discontiguous: the suffix "
                                   "starts at node '" +
                           g.node_name(g.tail(suffix->front())) +
                           "', which the target's route never reaches");
        continue;
      }
    }
    resolved[i] = std::move(suffix);
  }

  // The declared audit, by the exact checker, over the final effective
  // routes: a reroute's suffix is charged at its target's injection time,
  // as Lemma 3.3 and the engine's audit charge it.
  if (req.audit_r.has_value()) {
    const auto charged_at = [&](std::size_t i) {
      return events[i].reroute ? events[injection_at[events[i].packet]].t
                               : events[i].t;
    };
    RateAudit audit(g.edge_count());
    for (std::size_t i = 0; i < events.size(); ++i)
      if (resolved[i]) audit.add(*resolved[i], charged_at(i));
    RateCheckResult res;
    const char* finding = "rate-infeasible";
    if (req.audit_w.has_value()) {
      res = check_window(audit, *req.audit_w, *req.audit_r);
      finding = "window-infeasible";
    } else if (req.audit_burst.has_value()) {
      res = check_bucket(audit, *req.audit_burst, *req.audit_r);
      finding = "bucket-infeasible";
    } else {
      res = check_rate_r(audit, *req.audit_r);
    }
    if (!res.ok) {
      // Name the last event charged to the violating edge and interval:
      // the one that goes over the budget.
      std::size_t last = 0;
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (!resolved[i]) continue;
        const Time t = charged_at(i);
        const Route& edges = *resolved[i];
        if (t >= res.t1 && t <= res.t2 &&
            std::find(edges.begin(), edges.end(), res.edge) != edges.end())
          last = i;
      }
      findings.push_back(at(last) + ": " + finding +
                         ": the script violates the declared audit: " +
                         res.describe(g));
    }
  }

  if (!findings.empty()) {
    std::string message;
    for (const std::string& f : findings)
      message += (message.empty() ? "" : "\n") + f;
    throw RequestError(errc::kBadParam, message);
  }
  Trace script;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].reroute)
      script.record_reroute(events[i].t, events[i].packet, *resolved[i]);
    else
      script.record_injection(events[i].t,
                              Injection{*resolved[i], events[i].tag});
  }
  return script;
}

}  // namespace

Registry::Registry() = default;

void Registry::register_topology(NamedTopology entry) {
  AQT_REQUIRE(!entry.name.empty(), "named topology needs a name");
  AQT_REQUIRE(entry.name.find(':') == std::string::npos,
              "named topology '" << entry.name
                                 << "' may not contain ':' (reserved for "
                                    "grammar specs)");
  AQT_REQUIRE(entry.build != nullptr,
              "named topology '" << entry.name << "' needs a builder");
  for (auto& existing : named_) {
    if (existing.name == entry.name) {
      existing = std::move(entry);
      return;
    }
  }
  named_.push_back(std::move(entry));
}

bool Registry::has_topology(const std::string& name) const {
  if (name.find(':') != std::string::npos) {
    try {
      (void)parse_topology_spec(name, 1);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }
  return std::any_of(named_.begin(), named_.end(),
                     [&](const NamedTopology& t) { return t.name == name; });
}

JsonValue Registry::catalog() const {
  JsonValue doc = JsonValue::make_object();
  doc.set("aqt_catalog", JsonValue::make_int(1));
  doc.set("topology_grammar", JsonValue::make_string(topology_spec_grammar()));
  JsonValue named = JsonValue::make_array();
  for (const NamedTopology& t : named_) {
    JsonValue entry = JsonValue::make_object();
    entry.set("name", JsonValue::make_string(t.name));
    entry.set("description", JsonValue::make_string(t.description));
    named.push_back(std::move(entry));
  }
  doc.set("topologies", std::move(named));
  JsonValue protocols = JsonValue::make_array();
  for (const std::string& p : protocol_names())
    protocols.push_back(JsonValue::make_string(p));
  doc.set("protocols", std::move(protocols));
  JsonValue adversaries = JsonValue::make_array();
  for (const char* kind :
       {"none", "stochastic", "hotspot", "convoy", "bucket", "lps",
        "scripted"})
    adversaries.push_back(JsonValue::make_string(kind));
  doc.set("adversaries", std::move(adversaries));
  JsonValue artifacts = JsonValue::make_array();
  for (const char* a : {"metrics", "trace_hash", "growth"})
    artifacts.push_back(JsonValue::make_string(a));
  doc.set("artifacts", std::move(artifacts));
  return doc;
}

RunSpec Registry::compile(const RunRequest& req) const {
  // Protocol: exactly make_protocol's name table.
  {
    const auto& names = protocol_names();
    if (std::find(names.begin(), names.end(), req.protocol) == names.end())
      throw RequestError(errc::kUnknownProtocol,
                         "unknown protocol \"" + req.protocol + "\"");
  }

  // Topology: named recipe first, then the grammar.  The parse result for
  // grammar specs is shared into the closures (graph copied per cell, the
  // lps gadget handle borrowed by the adversary factory).
  std::shared_ptr<const TopologySpec> topo;
  std::function<Graph()> build;
  if (req.topology.find(':') == std::string::npos) {
    const NamedTopology* entry = nullptr;
    for (const NamedTopology& t : named_)
      if (t.name == req.topology) entry = &t;
    if (entry == nullptr)
      throw RequestError(errc::kUnknownTopology,
                         "unknown topology \"" + req.topology +
                             "\" (no such named recipe; grammar specs "
                             "contain ':')");
    const auto builder = entry->build;
    const std::uint64_t seed = req.seed;
    build = [builder, seed] { return builder(seed); };
  } else {
    try {
      topo = std::make_shared<const TopologySpec>(
          parse_topology_spec(req.topology, req.seed));
    } catch (const std::exception& e) {
      throw RequestError(errc::kUnknownTopology,
                         "bad topology spec \"" + req.topology +
                             "\": " + e.what());
    }
    build = [topo] { return topo->graph; };
  }

  const AdversarySpec& adv = req.adversary;
  const bool is_lps_adv = adv.kind == "lps";
  if (is_lps_adv && (topo == nullptr || !topo->is_lps))
    throw RequestError(errc::kBadParam,
                       "adversary \"lps\" needs an lps:NxM topology, got \"" +
                           req.topology + "\"");
  if (is_lps_adv) {
    if (adv.r <= Rat(1, 2) || adv.r >= Rat(1))
      throw RequestError(errc::kBadParam,
                         "adversary \"lps\" needs 1/2 < r < 1 (Theorem "
                         "3.17), got r = " +
                             adv.r.str());
    const LpsConfig probe = make_lps_config(adv.r);
    if (probe.n != topo->lps_net.n)
      throw RequestError(
          errc::kBadParam,
          "topology lps:" + std::to_string(topo->lps_net.n) +
              "xM does not match n(" + adv.r.str() +
              ") = " + std::to_string(probe.n) + "; use lps:" +
              std::to_string(probe.n) + "xM");
  }
  if ((adv.kind == "stochastic" || adv.kind == "hotspot" ||
       adv.kind == "convoy" || adv.kind == "bucket" || is_lps_adv) &&
      adv.r == Rat(0))
    throw RequestError(errc::kBadParam,
                       "adversary \"" + adv.kind + "\" needs r > 0");

  RunSpec spec;
  spec.name = req.id;
  spec.topology.name = req.topology;
  spec.topology.build = std::move(build);
  spec.protocol = req.protocol;
  spec.seed = req.seed;
  spec.steps = req.steps;
  spec.stop_when_finished = req.stop_when_finished;
  spec.drain_after = req.drain;
  spec.drain_cap = req.drain_cap;
  spec.audit_w = req.audit_w;
  spec.audit_burst = req.audit_burst;
  spec.audit_r = req.audit_r;
  spec.artifacts.metrics = req.art_metrics;
  spec.artifacts.trace_hash = req.art_trace_hash;
  spec.artifacts.growth = req.art_growth;
  spec.controls.resume_from = req.resume_from;

  if (adv.kind == "none") {
    spec.adversary = nullptr;
  } else if (adv.kind == "stochastic" || adv.kind == "hotspot") {
    StochasticConfig cfg;
    cfg.w = adv.w;
    cfg.r = adv.r;
    cfg.max_route_len = adv.d;
    cfg.mode = adv.kind == "hotspot" ? StochasticConfig::Mode::kHotspot
                                     : StochasticConfig::Mode::kUniform;
    spec.adversary = [cfg](const Graph& graph,
                           std::uint64_t seed) -> std::unique_ptr<Adversary> {
      StochasticConfig c = cfg;
      c.seed = seed;
      return std::make_unique<StochasticAdversary>(graph, c);
    };
  } else if (adv.kind == "bucket") {
    BucketAdversary::Config cfg;
    cfg.burst = adv.burst;
    cfg.rate = adv.r;
    cfg.max_route_len = adv.d;
    spec.adversary = [cfg](const Graph& graph,
                           std::uint64_t seed) -> std::unique_ptr<Adversary> {
      BucketAdversary::Config c = cfg;
      c.seed = seed;
      return std::make_unique<BucketAdversary>(graph, c);
    };
  } else if (adv.kind == "convoy") {
    const std::int64_t w = adv.w;
    const Rat r = adv.r;
    const std::int64_t d = adv.d;
    spec.adversary = [w, r, d](const Graph& graph,
                               std::uint64_t) -> std::unique_ptr<Adversary> {
      const Route path = convoy_route(graph, d);
      if (path.empty())
        throw RequestError(errc::kBadParam,
                           "no forward path from node 0 for the convoy "
                           "adversary on this topology");
      return std::make_unique<ConvoyAdversary>(path, w, r);
    };
  } else if (is_lps_adv) {
    const Rat r = adv.r;
    const std::int64_t iterations = adv.iterations;
    const std::int64_t s_star = adv.s_star;
    // `topo` is captured by both closures: it owns the ChainedGadgets the
    // adversary borrows, and the spec outlives the cell's adversary.
    spec.adversary = [topo, r, iterations](
                         const Graph&,
                         std::uint64_t) -> std::unique_ptr<Adversary> {
      LpsConfig cfg = make_lps_config(r);
      cfg.enforce_s0 = false;
      return std::make_unique<LpsAdversary>(topo->lps_net, cfg, iterations);
    };
    spec.setup = [topo, s_star](Engine& eng, const Graph&) {
      setup_flat_queue(eng, topo->lps_net, 0, s_star);
    };
  } else if (adv.kind == "scripted") {
    const Graph named_graph = topo == nullptr ? spec.topology.build() : Graph();
    spec.adversary = script_adversary(
        compile_script(req, topo == nullptr ? named_graph : topo->graph));
  } else {
    throw RequestError(errc::kUnknownAdversary,
                       "unknown adversary kind \"" + adv.kind + "\"");
  }

  return spec;
}

}  // namespace serve
}  // namespace aqt
