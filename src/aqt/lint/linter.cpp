#include "aqt/lint/linter.hpp"

#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "aqt/core/protocol.hpp"
#include "aqt/core/rate_check.hpp"
#include "aqt/topology/spec.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/json.hpp"

namespace aqt {
namespace {

void add_finding(LintReport& rep, std::string code, int line,
                 std::string message) {
  rep.findings.push_back(
      LintFinding{std::move(code), line, std::move(message)});
}

/// Resolves a list of edge names; unresolved names become "dangling-edge"
/// findings.  Returns nullopt unless every name resolved.
std::optional<Route> resolve_route(const Graph& g,
                                   const std::vector<std::string>& names,
                                   int line, const char* what,
                                   LintReport& rep) {
  Route route;
  bool ok = true;
  for (const std::string& name : names) {
    const auto e = g.find_edge(name);
    if (!e) {
      std::ostringstream os;
      os << what << " names edge '" << name
         << "', which does not exist in this topology";
      add_finding(rep, "dangling-edge", line, os.str());
      ok = false;
      continue;
    }
    route.push_back(*e);
  }
  if (!ok) return std::nullopt;
  return route;
}

}  // namespace

std::vector<LintFinding> lint_gadget_wiring(const ChainedGadgets& net) {
  std::vector<LintFinding> findings;
  const Graph& g = net.graph;
  auto fail = [&findings](const std::string& message) {
    findings.push_back(LintFinding{"gadget-wiring", 0, message});
  };
  auto edge_ok = [&g](EdgeId e) { return e != kNoEdge && e < g.edge_count(); };

  if (net.n < 1) fail("gadget path length n must be >= 1");
  if (net.gadget_count < 1 ||
      net.gadgets.size() != static_cast<std::size_t>(net.gadget_count)) {
    fail("gadget handle lists " + std::to_string(net.gadgets.size()) +
         " gadgets but declares gadget_count=" +
         std::to_string(net.gadget_count));
    return findings;  // Indexed checks below would be meaningless.
  }

  // A contiguous run of edges from `from` to `to`, as Definition 3.4's
  // parallel paths require.
  auto check_path = [&](const std::vector<EdgeId>& path, EdgeId from,
                        EdgeId to, const std::string& label) {
    if (net.n >= 1 &&
        path.size() != static_cast<std::size_t>(net.n)) {
      fail(label + " has " + std::to_string(path.size()) +
           " edges, expected n=" + std::to_string(net.n));
      return;
    }
    for (const EdgeId e : path) {
      if (!edge_ok(e)) {
        fail(label + " contains an unresolved edge id");
        return;
      }
    }
    if (!edge_ok(from) || !edge_ok(to)) return;  // Reported separately.
    NodeId at = g.head(from);
    for (const EdgeId e : path) {
      if (g.tail(e) != at) {
        fail(label + " is not contiguous at edge '" + g.edge(e).name + "'");
        return;
      }
      at = g.head(e);
    }
    if (at != g.tail(to))
      fail(label + " does not terminate at the egress tail");
  };

  for (std::size_t k = 0; k < net.gadgets.size(); ++k) {
    const GadgetEdges& gd = net.gadgets[k];
    const std::string label = "gadget F(" + std::to_string(k + 1) + ")";
    if (!edge_ok(gd.ingress)) fail(label + " has an unresolved ingress edge");
    if (!edge_ok(gd.egress)) fail(label + " has an unresolved egress edge");
    check_path(gd.e_path, gd.ingress, gd.egress, label + " e-path");
    check_path(gd.f_path, gd.ingress, gd.egress, label + " f-path");
    if (k + 1 < net.gadgets.size() &&
        gd.egress != net.gadgets[k + 1].ingress)
      fail(label + "'s egress is not identified with F(" +
           std::to_string(k + 2) +
           ")'s ingress (the 'o' composition of Definition 3.4)");
  }

  if (net.back_edge != kNoEdge) {
    const GadgetEdges& first = net.gadgets.front();
    const GadgetEdges& last = net.gadgets.back();
    if (!edge_ok(net.back_edge)) {
      fail("closed chain's back edge e0 is unresolved");
    } else if (edge_ok(last.egress) && edge_ok(first.ingress)) {
      if (g.tail(net.back_edge) != g.head(last.egress) ||
          g.head(net.back_edge) != g.tail(first.ingress))
        fail("back edge e0 does not close the chain from the last egress "
             "to the first ingress (Fig. 3.2)");
    }
  }
  return findings;
}

LintReport lint_scenario(const Scenario& sc, std::string file) {
  LintReport rep;
  rep.file = std::move(file);
  rep.injections = sc.injections.size();
  rep.reroutes = sc.reroutes.size();

  // --- Topology and protocol ----------------------------------------------
  std::optional<TopologySpec> topo;
  try {
    topo.emplace(parse_topology_spec(sc.topology, sc.topology_seed));
  } catch (const PreconditionError& e) {
    add_finding(rep, "topology-invalid", sc.topology_line, e.what());
  }
  std::unique_ptr<Protocol> protocol;
  try {
    protocol = make_protocol(sc.protocol);
  } catch (const PreconditionError& e) {
    add_finding(rep, "protocol-unknown", sc.protocol_line, e.what());
  }
  if (!topo) return rep;  // Every remaining check needs the graph.
  const Graph& g = topo->graph;

  if (topo->is_lps)
    for (LintFinding& f : lint_gadget_wiring(topo->lps_net))
      rep.findings.push_back(std::move(f));

  // --- Injections ---------------------------------------------------------
  std::vector<std::optional<Route>> resolved(sc.injections.size());
  for (std::size_t i = 0; i < sc.injections.size(); ++i) {
    const ScenarioInjection& inj = sc.injections[i];
    if (inj.t < 1) {
      std::ostringstream os;
      os << "injection at t=" << inj.t
         << "; adversary injections start at step 1 (step 0 is the "
            "initial configuration)";
      add_finding(rep, "inject-time-invalid", inj.line, os.str());
    }
    auto route = resolve_route(g, inj.route, inj.line, "injection route",
                               rep);
    if (!route) continue;
    if (!g.is_path(*route)) {
      add_finding(rep, "route-not-path", inj.line,
                  "injection route is not contiguous (head of each edge "
                  "must be the tail of the next)");
    } else if (!g.is_simple_path(*route)) {
      add_finding(rep, "route-not-simple", inj.line,
                  "injection route revisits a node; the model (paper "
                  "section 2) requires simple routes");
    } else {
      resolved[i] = std::move(*route);
    }
  }

  // --- Reroutes (static Lemma 3.3 preconditions) --------------------------
  std::vector<std::optional<Route>> suffixes(sc.reroutes.size());
  for (std::size_t i = 0; i < sc.reroutes.size(); ++i) {
    const ScenarioReroute& rr = sc.reroutes[i];
    if (protocol && !protocol->is_historic()) {
      std::ostringstream os;
      os << "reroute under protocol " << protocol->name()
         << ", which is not historic; Lemma 3.3 licenses rerouting only "
            "for historic protocols (Definition 3.1)";
      add_finding(rep, "reroute-nonhistoric", rr.line, os.str());
    }
    if (rr.packet_ordinal >= sc.injections.size()) {
      std::ostringstream os;
      os << "reroute targets packet ordinal " << rr.packet_ordinal
         << " but the scenario injects only " << sc.injections.size()
         << " packets";
      add_finding(rep, "reroute-unknown-packet", rr.line, os.str());
      continue;
    }
    const ScenarioInjection& target = sc.injections[rr.packet_ordinal];
    if (rr.t <= target.t) {
      std::ostringstream os;
      os << "reroute at t=" << rr.t << " targets packet ordinal "
         << rr.packet_ordinal << " injected at t=" << target.t
         << "; reroutes apply before same-step injections, so the target "
            "exists only from step "
         << target.t + 1;
      add_finding(rep, "reroute-too-early", rr.line, os.str());
    }
    auto suffix = resolve_route(g, rr.suffix, rr.line, "reroute suffix",
                                rep);
    if (!suffix) continue;
    if (!g.is_path(*suffix)) {
      add_finding(rep, "route-not-path", rr.line,
                  "reroute suffix is not contiguous");
      continue;
    }
    // The suffix splices after some traversed prefix of the target's
    // route, so its first edge must depart from a node the route visits.
    if (resolved[rr.packet_ordinal]) {
      const Route& route = *resolved[rr.packet_ordinal];
      bool splices = false;
      for (const EdgeId e : route)
        if (g.head(e) == g.tail(suffix->front())) splices = true;
      if (!splices) {
        std::ostringstream os;
        os << "reroute suffix starts at node '"
           << g.node_name(g.tail(suffix->front()))
           << "', which the target's route never reaches; no splice "
              "point can make the new route contiguous";
        add_finding(rep, "reroute-discontiguous", rr.line, os.str());
        continue;
      }
    }
    suffixes[i] = std::move(*suffix);
  }

  // --- Declared rate-feasibility certificates -----------------------------
  // Charged over final effective routes: injection routes at their own
  // times, reroute suffix edges at the *target's* injection time — the
  // accounting Lemma 3.3 and the engine's post-hoc audit both use.
  RateAudit audit(g.edge_count());
  for (std::size_t i = 0; i < sc.injections.size(); ++i)
    if (resolved[i] && sc.injections[i].t >= 1)
      audit.add(*resolved[i], sc.injections[i].t);
  for (std::size_t i = 0; i < sc.reroutes.size(); ++i)
    if (suffixes[i])
      for (const EdgeId e : *suffixes[i])
        audit.add_edge(e, sc.injections[sc.reroutes[i].packet_ordinal].t);

  std::ostringstream certs;
  if (sc.window_w) {
    if (*sc.window_w < 1) {
      add_finding(rep, "window-invalid", sc.window_line,
                  "window length w must be >= 1");
    } else {
      const RateCheckResult res =
          check_window(audit, *sc.window_w, *sc.window_r);
      if (!res.ok) {
        add_finding(rep, "window-infeasible", sc.window_line,
                    "scripted injections violate the declared (w, r) "
                    "constraint: " +
                        res.describe(g));
      } else {
        certs << "window(" << *sc.window_w << ", " << sc.window_r->str()
              << ") feasible; ";
      }
    }
  }
  if (sc.rate_r) {
    const RateCheckResult res = check_rate_r(audit, *sc.rate_r);
    if (!res.ok) {
      add_finding(rep, "rate-infeasible", sc.rate_line,
                  "scripted injections violate the declared rate-r "
                  "constraint: " +
                      res.describe(g));
    } else {
      certs << "rate " << sc.rate_r->str() << " feasible; ";
    }
  }
  std::string c = certs.str();
  if (c.size() >= 2) c.resize(c.size() - 2);  // Trim trailing "; ".
  rep.certificates = std::move(c);
  return rep;
}

LintReport lint_file(const std::string& path) {
  try {
    return lint_scenario(parse_scenario_file(path), path);
  } catch (const PreconditionError& e) {
    LintReport rep;
    rep.file = path;
    add_finding(rep, "parse-error", 0, e.what());
    return rep;
  }
}

std::string to_human(const std::vector<LintReport>& reports) {
  std::ostringstream os;
  for (const LintReport& rep : reports) {
    if (rep.ok()) {
      os << rep.file << ": OK (" << rep.injections << " injections, "
         << rep.reroutes << " reroutes";
      if (!rep.certificates.empty()) os << "; " << rep.certificates;
      os << ")\n";
      continue;
    }
    os << rep.file << ": " << rep.findings.size() << " problem"
       << (rep.findings.size() == 1 ? "" : "s") << "\n";
    for (const LintFinding& f : rep.findings) {
      os << "  " << rep.file;
      if (f.line > 0) os << ":" << f.line;
      os << ": [" << f.code << "] " << f.message << "\n";
    }
  }
  return os.str();
}

std::string to_json(const std::vector<LintReport>& reports) {
  std::ostringstream os;
  bool all_ok = true;
  for (const LintReport& rep : reports) all_ok = all_ok && rep.ok();
  os << "{\"ok\":" << (all_ok ? "true" : "false") << ",\"reports\":[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const LintReport& rep = reports[i];
    if (i) os << ",";
    os << "{\"file\":\"" << json_escape_string(rep.file) << "\","
       << "\"ok\":" << (rep.ok() ? "true" : "false") << ","
       << "\"injections\":" << rep.injections << ","
       << "\"reroutes\":" << rep.reroutes << ","
       << "\"certificates\":\"" << json_escape_string(rep.certificates) << "\","
       << "\"findings\":[";
    for (std::size_t j = 0; j < rep.findings.size(); ++j) {
      const LintFinding& f = rep.findings[j];
      if (j) os << ",";
      os << "{\"code\":\"" << json_escape_string(f.code) << "\","
         << "\"line\":" << f.line << ","
         << "\"message\":\"" << json_escape_string(f.message) << "\"}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

}  // namespace aqt
