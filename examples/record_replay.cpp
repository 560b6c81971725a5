// Trace tooling: record a run to a file, rebuild its adversary schedule
// from it, and replay that schedule against any historic protocol.
//
// Demonstrates the trace subsystem end-to-end:
//   1. run a Lemma 3.6 hand-off under FIFO, recording it as a run trace
//      (.aqtt) — the evidence aqt-verify checks;
//   2. parse the file back and rebuild the schedule from its injection (J)
//      and reroute (R) records;
//   3. replay the identical schedule under a protocol of your choice and
//      compare the outcome.
//
//   ./record_replay [--replay-protocol LIS] [--S 600] [--trace out.aqtt]
//   aqt-verify out.aqtt
#include <cstdio>
#include <fstream>
#include <iostream>

#include "aqt/adversaries/lps.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/trace/run_trace.hpp"
#include "aqt/trace/trace.hpp"
#include "aqt/util/cli.hpp"
#include "aqt/util/table.hpp"

int main(int argc, char** argv) {
  using namespace aqt;
  Cli cli("record_replay", "record / persist / replay adversary traces");
  cli.flag("replay-protocol", "LIS", "protocol for the replay run");
  cli.flag("S", "600", "initial C(S, F) size");
  cli.flag("trace", "handoff.aqtt", "run trace file path");
  if (!cli.parse(argc, argv)) return 0;

  const Rat r(7, 10);
  LpsConfig cfg = make_lps_config(r);
  cfg.enforce_s0 = false;
  const std::int64_t S = cli.get_int("S");
  const ChainedGadgets net = build_chain(cfg.n, 2);

  // 1. Record under FIFO.
  const std::string path = cli.get("trace");
  Time duration = 0;
  std::uint64_t fifo_max_queue = 0;
  std::int64_t fifo_s_prime = 0;
  std::int64_t fifo_mismatched = 0;
  {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    RunTraceWriter writer(out, net.graph, RunTraceMeta{});
    EngineConfig ec;
    ec.sinks.trace = &writer;
    FifoProtocol fifo;
    Engine eng(net.graph, fifo, ec);
    setup_gadget_invariant(eng, net, 0, S);
    LpsHandoff phase(net, cfg, 0);
    while (!phase.finished(eng.now() + 1)) eng.step(&phase);
    writer.finish(eng.total_injected(), eng.total_absorbed());
    duration = eng.now();
    fifo_max_queue = eng.metrics().max_queue_global();
    const auto fifo_rep = inspect_gadget(eng, net, 1);
    fifo_s_prime = fifo_rep.S();
    fifo_mismatched = fifo_rep.mismatched_routes;
  }
  std::printf("recorded %lld steps to %s\n", static_cast<long long>(duration),
              path.c_str());

  // 2. Reload, and rebuild the schedule from the J and R records.
  Trace loaded;
  ScheduleRecorder rebuild(loaded);
  replay_records(parse_run_trace_file(path), rebuild);
  std::printf("reloaded %zu schedule events (%llu injections)\n",
              loaded.size(),
              static_cast<unsigned long long>(loaded.injection_count()));

  // 3. Replay under another protocol.
  const std::string proto = cli.get("replay-protocol");
  auto protocol = make_protocol(proto);
  if (!protocol->is_historic()) {
    std::printf("cannot replay reroutes under non-historic protocol %s\n",
                proto.c_str());
    return 1;
  }
  Engine eng(net.graph, *protocol);
  setup_gadget_invariant(eng, net, 0, S);
  ReplayAdversary replay(loaded);
  eng.run(&replay, duration);

  const auto rep = inspect_gadget(eng, net, 1);
  Table t({"run", "protocol", "max queue", "amplified S'",
           "invariant deviations", "skipped reroutes"});
  t.rowv("recorded", "FIFO", static_cast<long long>(fifo_max_queue),
         static_cast<long long>(fifo_s_prime),
         static_cast<long long>(fifo_mismatched), 0ll);
  t.rowv("replayed", proto,
         static_cast<long long>(eng.metrics().max_queue_global()),
         static_cast<long long>(rep.S()),
         static_cast<long long>(rep.mismatched_routes),
         static_cast<long long>(replay.skipped_reroutes()));
  std::cout << "\n" << t
            << "\nUnder FIFO the amplified queue is a clean C(S', F') state "
               "(few deviations) the\nnext phase can build on; other "
               "policies leave stuck decoys that merely look\nlike a large "
               "queue -- the cascade cannot continue from it.\n";
  return 0;
}
