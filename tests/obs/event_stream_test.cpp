// The JSONL packet-event stream (aqt-sim --events) pinned to committed
// bytes: FNV-1a hashes of the whole stream for every golden-matrix cell,
// every example scenario and an lps:9x2 Theorem 3.17 run with initial
// packets and Lemma 3.3 reroutes, plus one stream compared byte for byte.
// A resumed run's stream continues the uninterrupted one exactly.
//
// If an intentional change to the event grammar moves these hashes,
// regenerate them with this command, written on one line:
//   AQT_PRINT_GOLDEN=1 ./tests/test_obs --gtest_filter='EventStream.*'
//     2>&1 | grep '^  {'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "aqt/adversaries/scripted.hpp"
#include "aqt/adversaries/stochastic.hpp"
#include "aqt/obs/events.hpp"
#include "aqt/runner/run_spec.hpp"
#include "aqt/serve/registry.hpp"
#include "aqt/serve/request.hpp"
#include "aqt/topology/generators.hpp"
#include "aqt/util/hash.hpp"
#include "aqt/verify/scenario_run.hpp"

namespace aqt {
namespace {

bool printing() {
  // aqt-audit: allow(AUD001) -- regeneration switch, never affects a run
  return std::getenv("AQT_PRINT_GOLDEN") != nullptr;
}

/// The run's JSONL event stream, as aqt-sim --events writes it.
std::string event_stream(const RunSpec& spec) {
  const Graph graph = spec.topology.build();
  std::ostringstream os;
  obs::JsonlEventWriter events(os, graph);
  RunObservers observers;
  observers.events = &events;
  const RunResult result = execute_run(spec, observers);
  EXPECT_TRUE(result.ok()) << spec.name << ": " << result.error;
  return os.str();
}

/// Compares (or, under AQT_PRINT_GOLDEN, prints) one committed hash.
void expect_stream_hash(const std::string& name, const RunSpec& spec,
                        std::uint64_t committed) {
  const std::uint64_t h = fnv1a(event_stream(spec));
  if (printing()) {
    std::printf("  {\"%s\", 0x%sULL},\n", name.c_str(), hash_hex(h).c_str());
    return;
  }
  EXPECT_EQ(hash_hex(h), hash_hex(committed)) << name;
}

/// The golden-matrix cells (tests/verify/golden_matrix_test.cpp), run
/// compiled with the matrix's seed, steps and drain.
std::vector<RunSpec> golden_matrix_specs() {
  struct Cell {
    const char* name;
    TopologyRecipe topology;
    AdversaryFactory adversary;
    Time steps;
  };
  const std::vector<Cell> cells = {
      {"scripted-ring",
       {"ring6", [] { return make_ring(6); }},
       [](const Graph&, std::uint64_t) -> std::unique_ptr<Adversary> {
         auto adv = std::make_unique<ScriptedAdversary>();
         adv->inject_at(1, Route{0, 1, 2}, 10);
         adv->inject_at(1, Route{3, 4, 5}, 11);
         adv->inject_at(1, Route{1, 2, 3}, 12);
         adv->inject_at(2, Route{0, 1}, 20);
         adv->inject_at(2, Route{2, 3, 4, 5}, 21);
         adv->inject_at(5, Route{4, 5, 0}, 50);
         adv->inject_at(9, Route{5, 0, 1, 2}, 90);
         return adv;
       },
       64},
      {"stream-line",
       {"line8", [] { return make_line(8); }},
       [](const Graph&, std::uint64_t) -> std::unique_ptr<Adversary> {
         auto adv = std::make_unique<StreamAdversary>();
         adv->add_stream(Route{0, 1, 2, 3}, Rat(1, 2), 1, 20, 1);
         adv->add_stream(Route{4, 5, 6, 7}, Rat(1, 3), 3, 15, 2);
         adv->add_stream(Route{2, 3, 4, 5}, Rat(1, 4), 1, 10, 3);
         return adv;
       },
       128},
      {"stochastic-grid",
       {"grid3x3", [] { return make_grid(3, 3); }},
       [](const Graph& g, std::uint64_t seed) -> std::unique_ptr<Adversary> {
         StochasticConfig cfg;
         cfg.w = 4;
         cfg.r = Rat(3, 4);
         cfg.max_route_len = 4;
         cfg.seed = seed;
         cfg.attempts_per_step = 4;
         return std::make_unique<StochasticAdversary>(g, cfg);
       },
       256},
  };
  std::vector<RunSpec> specs;
  for (const Cell& cell : cells) {
    for (const char* protocol : {"FIFO", "LIS", "NTG"}) {
      RunSpec spec;
      spec.name = std::string(cell.name) + "/" + protocol;
      spec.topology = cell.topology;
      spec.protocol = protocol;
      spec.adversary = cell.adversary;
      spec.seed = 7;
      spec.steps = cell.steps;
      spec.drain_after = true;
      spec.artifacts.trace_hash = true;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

/// An example scenario as aqt-sim --scenario runs it (default --steps).
RunSpec scenario_spec(const std::string& name) {
  return make_scenario_spec(
      load_scenario_run(std::string(AQT_SOURCE_DIR) + "/examples/scenarios/" +
                        name + ".aqts"),
      name, 10000);
}

struct Committed {
  const char* name;
  std::uint64_t hash;
};

TEST(EventStream, GoldenMatrixCellsMatchCommittedHashes) {
  constexpr Committed kCommitted[] = {
      {"scripted-ring/FIFO", 0xda0cfcc905a2b297ULL},
      {"scripted-ring/LIS", 0xbb799805325e8936ULL},
      {"scripted-ring/NTG", 0xbb799805325e8936ULL},
      {"stream-line/FIFO", 0xc471f89bd3e9a5d4ULL},
      {"stream-line/LIS", 0xc471f89bd3e9a5d4ULL},
      {"stream-line/NTG", 0xc471f89bd3e9a5d4ULL},
      {"stochastic-grid/FIFO", 0xada1f6f386418d25ULL},
      {"stochastic-grid/LIS", 0xa74f04206bf19277ULL},
      {"stochastic-grid/NTG", 0x12597ff3ea347455ULL},
  };
  const std::vector<RunSpec> specs = golden_matrix_specs();
  ASSERT_EQ(specs.size(), std::size(kCommitted));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_EQ(specs[i].name, kCommitted[i].name);
    expect_stream_hash(specs[i].name, specs[i], kCommitted[i].hash);
  }
}

TEST(EventStream, ExampleScenariosMatchCommittedHashes) {
  constexpr Committed kCommitted[] = {
      {"bidiring_lis", 0x7cffe9fb97d896caULL},
      {"lps_reroute", 0x2e0fcd9d5d8d5e15ULL},
      {"quickstart_grid", 0xa91754b9ba8ec376ULL},
      {"ring_convoy", 0xf61575b5deeb7369ULL},
      {"torus_hotspot", 0x80c869b86299ed52ULL},
  };
  for (const Committed& c : kCommitted)
    expect_stream_hash(c.name, scenario_spec(c.name), c.hash);
}

TEST(EventStream, LpsConstructionWithReroutesMatchesCommittedHash) {
  // aqt-sim --topology lps:9x2 --adversary lps --r 7/10 --iterations 1
  //         --s-star 100 --steps 100000: the flat queue as initial packets,
  // then one iteration with its Lemma 3.3 reroutes.
  serve::RunRequest req;
  req.topology = "lps:9x2";
  req.adversary.kind = "lps";
  req.adversary.r = Rat(7, 10);
  req.adversary.iterations = 1;
  req.adversary.s_star = 100;
  req.steps = 100000;
  serve::audit_adversary_constraint(req);
  const RunSpec spec = serve::Registry().compile(req);
  const std::string stream = event_stream(spec);
  EXPECT_NE(stream.find("\"initial\":true"), std::string::npos);
  expect_stream_hash("lps:9x2", spec, 0xb5af58e8616ef15fULL);
}

TEST(EventStream, LpsRerouteScenarioMatchesCommittedBytes) {
  // Packet 0 is rerouted in a2's buffer at t=6: its hop count runs on
  // across the splice (5 -> 6).
  const std::string committed = R"jsonl({"ev":"milestone","t":0,"name":"run-begin"}
{"ev":"inject","t":1,"packet":0,"tag":1,"initial":false,"route":["a1","g1.e1","g1.e2","g1.e3","g1.e4","a2"]}
{"ev":"send","t":2,"packet":0,"edge":"a1","hop":0,"residence":1}
{"ev":"send","t":3,"packet":0,"edge":"g1.e1","hop":1,"residence":1}
{"ev":"inject","t":3,"packet":1,"tag":2,"initial":false,"route":["g1.f1","g1.f2","g1.f3","g1.f4"]}
{"ev":"send","t":4,"packet":0,"edge":"g1.e2","hop":2,"residence":1}
{"ev":"send","t":4,"packet":1,"edge":"g1.f1","hop":0,"residence":1}
{"ev":"send","t":5,"packet":0,"edge":"g1.e3","hop":3,"residence":1}
{"ev":"send","t":5,"packet":1,"edge":"g1.f2","hop":1,"residence":1}
{"ev":"send","t":6,"packet":0,"edge":"g1.e4","hop":4,"residence":1}
{"ev":"send","t":6,"packet":1,"edge":"g1.f3","hop":2,"residence":1}
{"ev":"milestone","t":6,"name":"drain-begin"}
{"ev":"send","t":7,"packet":1,"edge":"g1.f4","hop":3,"residence":1}
{"ev":"send","t":7,"packet":0,"edge":"a2","hop":5,"residence":1}
{"ev":"absorb","t":7,"packet":1,"latency":4}
{"ev":"send","t":8,"packet":0,"edge":"g2.f1","hop":6,"residence":1}
{"ev":"send","t":9,"packet":0,"edge":"g2.f2","hop":7,"residence":1}
{"ev":"send","t":10,"packet":0,"edge":"g2.f3","hop":8,"residence":1}
{"ev":"send","t":11,"packet":0,"edge":"g2.f4","hop":9,"residence":1}
{"ev":"send","t":12,"packet":0,"edge":"a3","hop":10,"residence":1}
{"ev":"absorb","t":12,"packet":0,"latency":11}
{"ev":"milestone","t":12,"name":"run-end"}
)jsonl";
  const std::string stream = event_stream(scenario_spec("lps_reroute"));
  if (printing()) {
    std::printf("%s", stream.c_str());
    return;
  }
  EXPECT_EQ(stream, committed);
}

TEST(EventStream, ResumedRunContinuesTheUninterruptedStream) {
  // The writer derives hop, residence and latency from per-packet state;
  // a resumed run seeds it from the restored engine, so its stream is the
  // uninterrupted stream from the checkpoint on.
  const Time cut = 100;
  const RunSpec spec = golden_matrix_specs()[6];  // stochastic-grid/FIFO
  ASSERT_EQ(spec.name, "stochastic-grid/FIFO");
  const std::string full = event_stream(spec);

  const std::string path = ::testing::TempDir() + "/event_stream_resume.ckpt";
  RunSpec first = spec;
  first.controls.checkpoint_at = cut;
  first.controls.checkpoint_to = path;
  ASSERT_TRUE(execute_run(first).checkpointed);
  RunSpec second = spec;
  second.controls.resume_from = path;
  const std::string resumed = event_stream(second);
  std::remove(path.c_str());

  const std::string begin =
      "{\"ev\":\"milestone\",\"t\":" + std::to_string(cut) +
      ",\"name\":\"run-begin\"}\n";
  ASSERT_EQ(resumed.substr(0, begin.size()), begin);
  std::istringstream is(full);
  const std::vector<obs::ObsEvent> events =
      obs::parse_jsonl_events(is, "full");
  std::size_t offset = 0;
  std::size_t live_at_cut = 0;
  for (const obs::ObsEvent& ev : events) {
    if (ev.t > cut) break;
    offset = full.find('\n', offset) + 1;
    if (ev.kind == obs::ObsEvent::Kind::kInject) ++live_at_cut;
    if (ev.kind == obs::ObsEvent::Kind::kAbsorb) --live_at_cut;
  }
  EXPECT_GT(live_at_cut, 0u) << "the cut should leave packets in flight";
  EXPECT_EQ(resumed.substr(begin.size()), full.substr(offset));
}

}  // namespace
}  // namespace aqt
