// Quickstart: describe a job as a RunRequest — a network, a protocol and
// (w, r) traffic — compile it, run it, and read the stability-relevant
// numbers.  This is the path aqt-sim, aqt-serve and the run pool all take.
//
//   ./quickstart [--protocol FIFO] [--steps 2000] [--w 12] [--r 1/4]
//                [--metrics-out metrics.json]
#include <cstdio>
#include <iostream>
#include <string>

#include "aqt/analysis/bounds.hpp"
#include "aqt/obs/export.hpp"
#include "aqt/runner/run_spec.hpp"
#include "aqt/serve/registry.hpp"
#include "aqt/serve/request.hpp"
#include "aqt/util/cli.hpp"
#include "aqt/util/table.hpp"

int main(int argc, char** argv) {
  using namespace aqt;
  Cli cli("quickstart", "minimal tour of the aqt simulator");
  cli.flag("protocol", "FIFO", "queuing policy (FIFO, LIS, FTG, ...)");
  cli.flag("steps", "2000", "steps to simulate");
  cli.flag("w", "12", "adversary window size");
  cli.flag("r", "1/4", "adversary rate (rational)");
  cli.flag("seed", "1", "traffic seed");
  cli.flag("metrics-out", "",
           "write a JSON metrics snapshot (aqt-metrics/1) to this path");
  if (!cli.parse(argc, argv)) return 0;

  // The job as data: a 4x4 grid (16 switches, 24 unit-capacity links)
  // under random (w, r) traffic with routes up to 4 hops, audited against
  // its own (w, r).  The flags then override the request's fields.
  serve::RunRequest req = serve::parse_run_request(R"({
    "aqt_run_request": 1, "topology": "grid:4x4", "protocol": "FIFO",
    "adversary": {"kind": "stochastic", "w": 12, "r": "1/4", "d": 4},
    "seed": 1, "steps": 2000, "audit": {"w": 12, "r": "1/4"},
    "artifacts": ["metrics", "trace_hash"]})", "quickstart");
  req.protocol = cli.get("protocol");
  req.steps = cli.get_int("steps");
  req.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  req.adversary.w = req.audit_w.emplace(cli.get_int("w"));
  req.adversary.r = req.audit_r.emplace(cli.get_rat("r"));
  const std::int64_t w = req.adversary.w;
  const Rat r = req.adversary.r;

  // The RunResult holds the always-on scalars; `collect` reads anything
  // else off the finished engine.
  RunSpec spec = serve::Registry().compile(req);
  std::string latency_distribution;
  spec.collect = [&latency_distribution](const Engine& eng, const Adversary*,
                                         RunResult& out) {
    out.extra["mean latency"] = eng.metrics().mean_latency();
    latency_distribution = eng.metrics().latency_histogram().summary();
  };
  RunResult s = execute_run(spec);
  if (!s.ok()) {
    std::fprintf(stderr, "quickstart: %s\n", s.error.c_str());
    return 2;
  }
  const std::int64_t bound = residence_bound(w, r);

  Table t({"metric", "value"});
  t.rowv("protocol", s.protocol);
  t.rowv("steps", static_cast<long long>(s.steps_run));
  t.rowv("packets injected", static_cast<long long>(s.injected));
  t.rowv("packets absorbed", static_cast<long long>(s.absorbed));
  t.rowv("still in flight", static_cast<long long>(s.in_flight));
  t.rowv("max queue ever", static_cast<long long>(s.max_queue));
  t.rowv("max buffer residence", static_cast<long long>(s.max_residence));
  t.rowv("Thm 4.1 bound ceil(w*r)", static_cast<long long>(bound));
  t.rowv("max end-to-end latency", static_cast<long long>(s.max_latency));
  t.rowv("mean end-to-end latency", s.extra["mean latency"]);
  t.rowv("traffic (w, r)-feasible", s.feasible);
  std::cout << "\naqt quickstart -- 4x4 grid under (" << w << ", " << r
            << ") traffic\n\n"
            << t << "\nlatency distribution: " << latency_distribution
            << "\n\n";

  if (!cli.get("metrics-out").empty()) {
    obs::write_file(cli.get("metrics-out"), obs::to_json(s.metrics,
                                                         "quickstart"));
    std::printf("metrics snapshot written to %s\n",
                cli.get("metrics-out").c_str());
  }

  if (r <= greedy_threshold(4) && s.max_residence > bound) {
    std::printf("UNEXPECTED: residence bound violated!\n");
    return 1;
  }
  std::printf("Residence stayed within the Theorem 4.1 bound, as proven.\n");
  return 0;
}
