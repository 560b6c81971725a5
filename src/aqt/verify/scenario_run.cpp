#include "aqt/verify/scenario_run.hpp"

#include <algorithm>

#include "aqt/util/check.hpp"

namespace aqt {
namespace {

Route resolve(const Graph& graph, const std::vector<std::string>& names,
              int line, const char* what) {
  Route route;
  route.reserve(names.size());
  for (const std::string& name : names) {
    const auto e = graph.find_edge(name);
    AQT_REQUIRE(e.has_value(), "" << what << " at scenario line " << line
                                  << " names unknown edge '" << name
                                  << "'");
    route.push_back(*e);
  }
  return route;
}

}  // namespace

Trace scenario_to_trace(const Scenario& scenario, const Graph& graph) {
  // Merge the two scripts into one time-ordered event stream.  Trace
  // requires non-decreasing times, and within a step the engine applies
  // reroutes before injections, so that is the tie-break order here too.
  struct Pending {
    Time t;
    bool is_reroute;
    std::size_t index;  ///< File order within its kind.
  };
  std::vector<Pending> order;
  order.reserve(scenario.injections.size() + scenario.reroutes.size());
  for (std::size_t i = 0; i < scenario.reroutes.size(); ++i)
    order.push_back({scenario.reroutes[i].t, true, i});
  for (std::size_t i = 0; i < scenario.injections.size(); ++i)
    order.push_back({scenario.injections[i].t, false, i});
  std::stable_sort(order.begin(), order.end(),
                   [](const Pending& a, const Pending& b) {
                     if (a.t != b.t) return a.t < b.t;
                     return a.is_reroute && !b.is_reroute;
                   });

  Trace trace;
  for (const Pending& ev : order) {
    if (ev.is_reroute) {
      const ScenarioReroute& rr = scenario.reroutes[ev.index];
      trace.record_reroute(rr.t, rr.packet_ordinal,
                           resolve(graph, rr.suffix, rr.line, "reroute"));
    } else {
      const ScenarioInjection& inj = scenario.injections[ev.index];
      trace.record_injection(
          inj.t,
          Injection{resolve(graph, inj.route, inj.line, "injection"),
                    inj.tag});
    }
  }
  return trace;
}

ScenarioRun load_scenario_run(const std::string& path) {
  ScenarioRun run;
  run.scenario = parse_scenario_file(path);
  run.topology =
      parse_topology_spec(run.scenario.topology, run.scenario.topology_seed);
  run.script = scenario_to_trace(run.scenario, run.topology.graph);
  run.last_event = run.script.last_time();

  run.meta.protocol = run.scenario.protocol;
  run.meta.scenario_digest = file_digest_hex(path);
  run.meta.window_w = run.scenario.window_w;
  run.meta.window_r = run.scenario.window_r;
  run.meta.rate_r = run.scenario.rate_r;
  return run;
}

RunSpec make_scenario_spec(ScenarioRun run, std::string name, Time steps) {
  const Time horizon = std::max<Time>(steps, run.last_event + 1);
  return make_scripted_spec(std::move(name), std::move(run.topology.graph),
                            std::move(run.script), run.meta, horizon);
}

LintReport lint_and_run_file(const std::string& path) {
  LintReport rep = lint_file(path);
  if (!rep.ok()) return rep;
  const RunResult run =
      execute_run(make_scenario_spec(load_scenario_run(path), path, 1));
  if (!run.ok())
    rep.findings.push_back(LintFinding{
        "run-failed", 0, "the scenario does not run: " + run.error});
  return rep;
}

}  // namespace aqt
