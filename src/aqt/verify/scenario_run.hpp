// Scenario execution support: turn an aqt-lint scenario file into
// everything a recorded, verifiable run needs.
//
// Scenarios identify packets by creation ordinal and edges by name — the
// same protocol-independent identities the adversary Trace uses — so the
// natural execution path is scenario -> Trace -> ReplayAdversary.  This
// header packages that conversion plus the run-trace metadata (protocol,
// declared constraints, scenario digest), and turns the result into the
// scripted RunSpec that aqt-sim --scenario, aqt-sim --batch and aqt-lint
// all run, so every entry point produces identical evidence.
#pragma once

#include <memory>
#include <string>

#include "aqt/core/protocol.hpp"
#include "aqt/lint/linter.hpp"
#include "aqt/lint/scenario.hpp"
#include "aqt/runner/run_spec.hpp"
#include "aqt/topology/spec.hpp"
#include "aqt/trace/run_trace.hpp"
#include "aqt/trace/trace.hpp"

namespace aqt {

/// Converts a parsed scenario's script into an adversary trace, resolving
/// edge names against `graph`.  Events are ordered by time; at equal times
/// reroutes precede injections (the engine's application order).  Throws
/// PreconditionError (with the scenario line) on unresolvable edges.
Trace scenario_to_trace(const Scenario& scenario, const Graph& graph);

/// A scenario loaded and ready to run: built topology, fresh protocol,
/// replayable script, and prefilled run-trace metadata.
struct ScenarioRun {
  Scenario scenario;
  TopologySpec topology;
  Trace script;
  RunTraceMeta meta;   ///< protocol/digest/window/rate filled; seed is not.
  Time last_event = 0; ///< Latest scripted time (run at least this far).
};

/// Loads, builds, and converts a scenario file.  The protocol is NOT
/// instantiated here — callers make one per run (stateful protocols such
/// as RANDOM must start fresh for every replay).
ScenarioRun load_scenario_run(const std::string& path);

/// The scenario as a job: make_scripted_spec named `name`, run until the
/// script ends (and at least `steps` steps), then drained.
RunSpec make_scenario_spec(ScenarioRun run, std::string name, Time steps);

/// aqt-lint's check of one file: lint_file, then, when that is clean, a
/// run of the scenario through make_scenario_spec.  A run error (such as a
/// scripted reroute that cannot apply) becomes a "run-failed" finding.
LintReport lint_and_run_file(const std::string& path);

}  // namespace aqt
