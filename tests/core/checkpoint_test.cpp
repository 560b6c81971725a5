// Tests for engine checkpoint save/restore.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "aqt/adversaries/lps.hpp"
#include "aqt/adversaries/scripted.hpp"
#include "aqt/adversaries/stochastic.hpp"
#include "aqt/core/checkpoint.hpp"
#include "aqt/core/engine.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/topology/generators.hpp"
#include "aqt/trace/run_trace.hpp"
#include "aqt/util/check.hpp"

namespace aqt {
namespace {

/// Aggregate observable fingerprint of an engine.
struct Fingerprint {
  Time now;
  std::uint64_t injected, absorbed, in_flight;
  std::uint64_t max_queue;
  Time max_residence;
  std::vector<std::size_t> queues;
  std::vector<std::uint64_t> front_ordinals;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const Engine& eng) {
  Fingerprint f{};
  f.now = eng.now();
  f.injected = eng.total_injected();
  f.absorbed = eng.total_absorbed();
  f.in_flight = eng.packets_in_flight();
  f.max_queue = eng.metrics().max_queue_global();
  f.max_residence = eng.metrics().max_residence_global();
  for (EdgeId e = 0; e < eng.graph().edge_count(); ++e) {
    f.queues.push_back(eng.queue_size(e));
    f.front_ordinals.push_back(
        eng.buffer(e).empty()
            ? std::uint64_t{0}
            : eng.packet_meta(eng.buffer(e).front().packet).ordinal + 1);
  }
  return f;
}

TEST(Checkpoint, RoundtripPreservesObservableState) {
  const Graph g = make_grid(4, 4);
  FifoProtocol fifo;
  Engine eng(g, fifo);
  StochasticConfig cfg;
  cfg.w = 10;
  cfg.r = Rat(3, 10);
  cfg.max_route_len = 4;
  cfg.seed = 3;
  StochasticAdversary adv(g, cfg);
  eng.run(&adv, 500);

  std::stringstream buf;
  save_checkpoint(eng, buf);

  Engine restored(g, fifo);
  load_checkpoint(restored, buf);
  EXPECT_EQ(fingerprint(restored), fingerprint(eng));
}

TEST(Checkpoint, ResumedRunMatchesUninterruptedRun) {
  const Graph g = make_grid(3, 3);
  FifoProtocol fifo;

  // Uninterrupted: 300 steps of scripted traffic.
  ScriptedAdversary full_script;
  Rng rng(11);
  for (Time t = 1; t <= 250; ++t) {
    if (rng.chance(0.6)) {
      const EdgeId e = static_cast<EdgeId>(rng.below(g.edge_count()));
      full_script.inject_at(t, {e}, static_cast<std::uint64_t>(t));
    }
  }
  Engine uninterrupted(g, fifo);
  uninterrupted.run(&full_script, 300);

  // Interrupted at step 150, checkpointed, resumed with the same script
  // (ScriptedAdversary is stateless in the engine, keyed by `now`).
  ScriptedAdversary script_a;
  ScriptedAdversary script_b;
  {
    Rng rng2(11);
    for (Time t = 1; t <= 250; ++t) {
      if (rng2.chance(0.6)) {
        const EdgeId e = static_cast<EdgeId>(rng2.below(g.edge_count()));
        script_a.inject_at(t, {e}, static_cast<std::uint64_t>(t));
        script_b.inject_at(t, {e}, static_cast<std::uint64_t>(t));
      }
    }
  }
  Engine first_half(g, fifo);
  first_half.run(&script_a, 150);
  std::stringstream buf;
  save_checkpoint(first_half, buf);

  Engine second_half(g, fifo);
  load_checkpoint(second_half, buf);
  EXPECT_EQ(second_half.now(), 150);
  second_half.run(&script_b, 150);

  EXPECT_EQ(fingerprint(second_half), fingerprint(uninterrupted));
}

TEST(Checkpoint, ResumeMidLpsPhasePreservesQueues) {
  // Checkpoint in the middle of a hand-off; the restored engine holds the
  // same queues (the phase itself is code and is not serialized).
  const Rat r(7, 10);
  LpsConfig cfg = make_lps_config(r);
  cfg.enforce_s0 = false;
  const ChainedGadgets net = build_chain(cfg.n, 2);
  FifoProtocol fifo;
  Engine eng(net.graph, fifo);
  setup_gadget_invariant(eng, net, 0, 300);
  LpsHandoff phase(net, cfg, 0);
  eng.run(&phase, 200);

  std::stringstream buf;
  save_checkpoint(eng, buf);
  Engine restored(net.graph, fifo);
  load_checkpoint(restored, buf);
  EXPECT_EQ(fingerprint(restored), fingerprint(eng));
}

TEST(Checkpoint, RejectsDifferentNetwork) {
  const Graph g = make_grid(3, 3);
  FifoProtocol fifo;
  Engine eng(g, fifo);
  eng.run(nullptr, 5);
  std::stringstream buf;
  save_checkpoint(eng, buf);

  const Graph other = make_grid(3, 4);
  Engine target(other, fifo);
  EXPECT_THROW(load_checkpoint(target, buf), PreconditionError);
}

TEST(Checkpoint, RejectsNonFreshTarget) {
  const Graph g = make_line(3);
  FifoProtocol fifo;
  Engine eng(g, fifo);
  eng.run(nullptr, 3);
  std::stringstream buf;
  save_checkpoint(eng, buf);

  Engine dirty(g, fifo);
  dirty.step(nullptr);
  EXPECT_THROW(load_checkpoint(dirty, buf), PreconditionError);
}

TEST(Checkpoint, RejectsAuditingEngines) {
  const Graph g = make_line(3);
  FifoProtocol fifo;
  EngineConfig ec;
  ec.audit_rates = true;
  Engine eng(g, fifo, ec);
  std::stringstream buf;
  EXPECT_THROW(save_checkpoint(eng, buf), PreconditionError);
}

TEST(Checkpoint, RejectsGarbageStream) {
  const Graph g = make_line(3);
  FifoProtocol fifo;
  Engine eng(g, fifo);
  std::stringstream buf("not a checkpoint at all");
  EXPECT_THROW(load_checkpoint(eng, buf), PreconditionError);
}

TEST(Checkpoint, WritesVersionThreeWithTheStandardFnv1aGraphChecksum) {
  const Graph g = make_line(3);
  FifoProtocol fifo;
  Engine eng(g, fifo);
  std::stringstream buf;
  save_checkpoint(eng, buf);
  // Independent spelling of the checksum: FNV-1a 64 with the standard
  // offset basis over every edge name, each followed by 0x1f.
  std::uint64_t h = 14695981039346656037ULL;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    for (const char c : g.edge(e).name + '\x1f') {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
  std::string magic, graph_word;
  int version = 0;
  std::size_t edges = 0;
  std::uint64_t checksum = 0;
  buf >> magic >> version >> graph_word >> edges >> checksum;
  EXPECT_EQ(magic, "AQT-CHECKPOINT");
  EXPECT_EQ(version, 3);
  EXPECT_EQ(edges, g.edge_count());
  EXPECT_EQ(checksum, h);
}

TEST(Checkpoint, RejectsVersionTwoNamingTheVersion) {
  const Graph g = make_line(3);
  FifoProtocol fifo;
  Engine eng(g, fifo);
  eng.run(nullptr, 3);
  std::stringstream buf;
  save_checkpoint(eng, buf);
  std::string text = buf.str();
  ASSERT_EQ(text.rfind("AQT-CHECKPOINT 3\n", 0), 0u);
  text.replace(0, std::string("AQT-CHECKPOINT 3").size(), "AQT-CHECKPOINT 2");
  std::stringstream old(text);
  Engine fresh(g, fifo);
  try {
    load_checkpoint(fresh, old);
    FAIL() << "a version-2 checkpoint loaded";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("version 2"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, RejectsAPacketRouteThatIsNotASimplePath) {
  // ring:3 has edges 0: v0->v1, 1: v1->v2, 2: v2->v0.  Edit the saved
  // packet's route into one that revisits v0, and into one with a gap:
  // every edge id is in range, so only route validation can refuse them,
  // and a refused route must not reach the route table.
  const Graph g = make_ring(3);
  FifoProtocol fifo;
  Engine eng(g, fifo);
  eng.add_initial_packet({0, 1});
  std::stringstream buf;
  save_checkpoint(eng, buf);
  const std::string text = buf.str();
  const std::size_t line = text.find("\np ");
  ASSERT_NE(line, std::string::npos);
  const std::size_t route = text.find(" 2 0 1\n", line);
  ASSERT_NE(route, std::string::npos);
  for (const char* bad : {" 3 0 1 2\n", " 2 1 0\n"}) {
    std::string tampered = text;
    tampered.replace(route, std::string(" 2 0 1\n").size(), bad);
    std::stringstream in(tampered);
    Engine target(g, fifo);
    EXPECT_THROW(load_checkpoint(target, in), PreconditionError) << bad;
  }
}

TEST(Checkpoint, PreservesSeries) {
  const Graph g = make_line(4);
  FifoProtocol fifo;
  EngineConfig ec;
  ec.series_stride = 5;
  Engine eng(g, fifo, ec);
  for (int i = 0; i < 8; ++i) eng.add_initial_packet({0, 1, 2, 3});
  eng.run(nullptr, 20);
  std::stringstream buf;
  save_checkpoint(eng, buf);

  Engine restored(g, fifo, ec);
  load_checkpoint(restored, buf);
  ASSERT_EQ(restored.metrics().series().size(),
            eng.metrics().series().size());
  for (std::size_t i = 0; i < eng.metrics().series().size(); ++i) {
    EXPECT_EQ(restored.metrics().series()[i].t,
              eng.metrics().series()[i].t);
    EXPECT_EQ(restored.metrics().series()[i].in_flight,
              eng.metrics().series()[i].in_flight);
  }
}

// --- Deep queues -------------------------------------------------------------
//
// FIFO and LIFO buffers are key-sorted rings (buffer.hpp).  A 5,000-packet
// initial queue on one edge, with newer packets joining it while it drains,
// is saved mid-drain, restored and finished: the resumed run must emit the
// uninterrupted run's trace hash and serve edge 0 in the same order.  The
// same run under a heap buffer (the identical key as a kCustom protocol)
// must agree too.

/// Forwards to a RunTraceWriter and logs the ordinals edge 0 sends.
class PopLog final : public RunTraceSink {
 public:
  explicit PopLog(RunTraceWriter& inner) : inner_(inner) {}
  void record_initial(std::uint64_t ordinal, std::uint64_t tag,
                      RouteSpan route) override {
    inner_.record_initial(ordinal, tag, route);
  }
  void begin_step(Time t) override { inner_.begin_step(t); }
  void record_send(EdgeId e, std::uint64_t ordinal) override {
    if (e == 0) pops.push_back(ordinal);
    inner_.record_send(e, ordinal);
  }
  void record_absorb(std::uint64_t ordinal) override {
    inner_.record_absorb(ordinal);
  }
  void record_reroute(std::uint64_t ordinal, RouteSpan suffix) override {
    inner_.record_reroute(ordinal, suffix);
  }
  void record_inject(std::uint64_t ordinal, std::uint64_t tag,
                     RouteSpan route) override {
    inner_.record_inject(ordinal, tag, route);
  }
  void record_queue_depth(EdgeId e, std::size_t depth) override {
    inner_.record_queue_depth(e, depth);
  }

  std::vector<std::uint64_t> pops;

 private:
  RunTraceWriter& inner_;
};

constexpr int kDeepQueue = 5000;
constexpr Time kInjectUntil = 3000;
constexpr Time kCut = 2500;

/// Every third step a packet joins edge 0's queue.
std::unique_ptr<ScriptedAdversary> deep_queue_script() {
  auto script = std::make_unique<ScriptedAdversary>();
  for (Time t = 3; t <= kInjectUntil; t += 3)
    script->inject_at(t, t % 2 == 0 ? Route{0, 1} : Route{0, 1, 2},
                      static_cast<std::uint64_t>(t));
  return script;
}

struct DeepQueueRun {
  std::uint64_t hash = 0;
  std::vector<std::uint64_t> pops;
};

/// The deep-queue run, uninterrupted (cut = 0) or saved after `cut` steps
/// and finished on a restored engine.
DeepQueueRun run_deep_queue(const Protocol& protocol, Time cut) {
  const Graph g = make_line(4);
  RunTraceMeta meta;
  meta.protocol = std::string(protocol.name());
  RunTraceWriter writer(g, meta);
  PopLog log(writer);
  EngineConfig config;
  config.sinks.trace = &log;
  Engine first(g, protocol, config);
  for (int i = 0; i < kDeepQueue; ++i)
    first.add_initial_packet(i % 3 == 0 ? Route{0} : Route{0, 1, 2},
                             static_cast<std::uint64_t>(i));
  const std::unique_ptr<ScriptedAdversary> script_a = deep_queue_script();
  DeepQueueRun out;
  if (cut == 0) {
    first.run(script_a.get(), kInjectUntil);
    EXPECT_LT(first.drain(100000), Time{100000});
    writer.finish(first.total_injected(), first.total_absorbed());
    out.hash = writer.content_hash();
    out.pops = log.pops;
    return out;
  }
  first.run(script_a.get(), cut);
  EXPECT_GT(first.queue_size(0), 1000u) << "the cut must be mid-drain";
  std::stringstream buf;
  save_checkpoint(first, buf);

  RunTraceWriter rest(writer.resume_state());
  PopLog rest_log(rest);
  rest_log.pops = log.pops;
  EngineConfig rest_config;
  rest_config.sinks.trace = &rest_log;
  Engine second(g, protocol, rest_config);
  load_checkpoint(second, buf);
  const std::unique_ptr<ScriptedAdversary> script_b = deep_queue_script();
  second.run(script_b.get(), kInjectUntil - cut);
  EXPECT_LT(second.drain(100000), Time{100000});
  rest.finish(second.total_injected(), second.total_absorbed());
  out.hash = rest.content_hash();
  out.pops = rest_log.pops;
  return out;
}

void expect_deep_queue_resumes(const Protocol& ring_protocol,
                               const Protocol& heap_protocol) {
  ASSERT_EQ(Buffer::layout_for(ring_protocol.key_rule()),
            Buffer::Layout::kRing);
  ASSERT_EQ(Buffer::layout_for(heap_protocol.key_rule()),
            Buffer::Layout::kHeap);
  const DeepQueueRun whole = run_deep_queue(ring_protocol, 0);
  ASSERT_EQ(whole.pops.size(),
            static_cast<std::size_t>(kDeepQueue + kInjectUntil / 3));
  const DeepQueueRun resumed = run_deep_queue(ring_protocol, kCut);
  EXPECT_EQ(resumed.hash, whole.hash);
  EXPECT_EQ(resumed.pops, whole.pops);
  const DeepQueueRun heap = run_deep_queue(heap_protocol, 0);
  EXPECT_EQ(heap.hash, whole.hash);
  EXPECT_EQ(heap.pops, whole.pops);
}

TEST(Checkpoint, DeepFifoQueueResumesMidDrain) {
  FifoProtocol fifo;
  LambdaProtocol fifo_heap(
      "FIFO", true, true, [](const Packet&, Time, std::uint64_t seq) {
        return PriorityKey{static_cast<std::int64_t>(seq), 0};
      });
  expect_deep_queue_resumes(fifo, fifo_heap);
}

TEST(Checkpoint, DeepLifoQueueResumesMidDrain) {
  LifoProtocol lifo;
  LambdaProtocol lifo_heap(
      "LIFO", true, false, [](const Packet&, Time, std::uint64_t seq) {
        return PriorityKey{-static_cast<std::int64_t>(seq), 0};
      });
  expect_deep_queue_resumes(lifo, lifo_heap);
}

}  // namespace
}  // namespace aqt
