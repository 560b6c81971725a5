// aqt-fuzz: randomized differential testing of the engine against the
// independent reference simulator, plus randomized validation of the
// aqt-lint scenario checker.
//
// Differential phase: generates random topologies, random injection
// scripts, and random legal reroutes; runs both simulators in lockstep for
// every deterministic protocol; and reports the first observable
// divergence (queue contents in forwarding order, absorption counts).
//
// Every differential trial additionally records its engine run as a run
// trace and feeds it through aqt-verify's independent model: the trial
// fails if the N-version verifier finds any rule violation in a run the
// lockstep comparison accepted.
//
// Lint phase (--lint-trials): generates random *valid* scenarios,
// round-trips them through the textual format, and requires the linter to
// accept them; then applies one targeted mutation (dangling edge name,
// non-simple route, infeasible window, reroute under a non-historic
// protocol) and requires the linter to reject with the matching finding
// code.
//
// Parser phase (--trace-trials): mutates known-valid run traces
// (truncation, byte flips, line deletion/duplication, garbage insertion)
// and requires the hardened parser to either accept the result or reject
// it with a diagnostic PreconditionError — never crash, abort, or throw
// anything else; whatever parses is verified too.  Each trial also mutates
// one JSON document (the same damage plus spliced tokens, nesting around
// the depth bound, duplicate keys, huge numbers, oversized input) and
// requires the shared JSON parser to reject it with a PreconditionError or
// to parse it to a value whose canonical form is a write -> parse -> write
// fixed point; the first JSON failure exits nonzero.
//
// Observer-effect phase (--obs-trials): runs the same scripted trial three
// times — bare; with the full observability stack (step-phase profiler +
// JSONL event stream + flight-recorder timeseries + stability watchdog);
// and with the Perfetto phase-trace recorder — and requires byte-identical
// run traces (same content hash).  Observation must never perturb a run.
//
// Exit code 0 means no divergence, no lint misjudgement, no parser
// misbehaviour, and no observer effect.
//
// The differential and observer-effect phases honor --jobs: trials are
// independent cells (each derives its RNG from a pre-split per-trial
// stream), executed through the deterministic run-pool primitives, so the
// output and verdict are byte-identical for any --jobs value.
//
//   aqt-fuzz [--trials 200] [--steps 80] [--lint-trials 100]
//            [--trace-trials 150] [--obs-trials 40] [--seed 1] [--jobs 4]
#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "aqt/core/engine.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/core/reference.hpp"
#include "aqt/lint/linter.hpp"
#include "aqt/lint/scenario.hpp"
#include "aqt/obs/events.hpp"
#include "aqt/obs/export.hpp"
#include "aqt/obs/profiler.hpp"
#include "aqt/obs/registry.hpp"
#include "aqt/obs/timeseries.hpp"
#include "aqt/obs/tracing.hpp"
#include "aqt/obs/watchdog.hpp"
#include "aqt/runner/pool.hpp"
#include "aqt/topology/generators.hpp"
#include "aqt/topology/spec.hpp"
#include "aqt/trace/run_trace.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/cli.hpp"
#include "aqt/util/hash.hpp"
#include "aqt/util/json.hpp"
#include "aqt/util/rng.hpp"
#include "aqt/verify/verifier.hpp"

namespace {

using namespace aqt;

/// Random simple forward route of up to `max_len` edges.
Route random_route(const Graph& g, Rng& rng, std::size_t max_len) {
  Route route;
  std::vector<bool> visited(g.node_count(), false);
  const EdgeId start = static_cast<EdgeId>(rng.below(g.edge_count()));
  route.push_back(start);
  visited[g.tail(start)] = visited[g.head(start)] = true;
  while (route.size() < max_len && !rng.chance(0.3)) {
    const auto& outs = g.out_edges(g.head(route.back()));
    Route options;
    for (EdgeId e : outs)
      if (!visited[g.head(e)]) options.push_back(e);
    if (options.empty()) break;
    const EdgeId pick = options[rng.below(options.size())];
    visited[g.head(pick)] = true;
    route.push_back(pick);
  }
  return route;
}

ReferenceSnapshot engine_snapshot(const Engine& eng) {
  ReferenceSnapshot snap;
  snap.now = eng.now();
  snap.injected = eng.total_injected();
  snap.absorbed = eng.total_absorbed();
  snap.queue_tags.resize(eng.graph().edge_count());
  for (EdgeId e = 0; e < eng.graph().edge_count(); ++e)
    for (const BufferEntry& be : eng.buffer(e).ordered_entries())
      snap.queue_tags[e].push_back(eng.packet_meta(be.packet).tag);
  return snap;
}

bool equal(const ReferenceSnapshot& a, const ReferenceSnapshot& b) {
  return a.now == b.now && a.injected == b.injected &&
         a.absorbed == b.absorbed && a.queue_tags == b.queue_tags;
}

Graph random_topology(Rng& rng) {
  switch (rng.below(5)) {
    case 0:
      return make_grid(rng.range(2, 4), rng.range(2, 4));
    case 1:
      return make_ring(rng.range(3, 10));
    case 2:
      return make_bidirectional_ring(rng.range(3, 7));
    case 3:
      return make_torus(rng.range(2, 4), rng.range(2, 4));
    default:
      return make_random_dag(rng.range(5, 14), 0.25, rng);
  }
}

bool has_code(const LintReport& rep, const std::string& code) {
  for (const LintFinding& f : rep.findings)
    if (f.code == code) return true;
  return false;
}

/// Random-scenario validation of the linter: valid scenarios must round-trip
/// through the textual format and be accepted; one targeted mutation must be
/// rejected with the matching finding code.  Returns trials that failed.
std::int64_t run_lint_fuzz(std::int64_t trials, Rng& master) {
  const std::vector<std::string> specs = {"grid:3x3", "ring:6", "bidiring:4",
                                          "torus:3x3", "lps:4x2"};
  std::int64_t failures = 0;
  for (std::int64_t trial = 0; trial < trials; ++trial) {
    Rng rng = master.split();
    const std::string& spec = specs[rng.below(specs.size())];
    const Graph g = parse_topology_spec(spec).graph;

    Scenario sc;
    sc.topology = spec;
    sc.protocol = "FIFO";
    Time t = 0;
    const std::int64_t count = rng.range(1, 6);
    for (std::int64_t i = 0; i < count; ++i) {
      t += rng.range(1, 5);
      ScenarioInjection inj;
      inj.t = t;
      for (const EdgeId e : random_route(g, rng, 4))
        inj.route.push_back(g.edge(e).name);
      inj.tag = static_cast<std::uint64_t>(i);
      sc.injections.push_back(std::move(inj));
    }

    // Round-trip a known-valid scenario; the linter must accept it.
    std::istringstream is(to_text(sc));
    const Scenario round_tripped = parse_scenario(is, "fuzz");
    if (!lint_scenario(round_tripped, "fuzz").ok()) {
      std::printf("LINT FALSE POSITIVE: trial %lld rejected a valid "
                  "scenario on %s\n",
                  static_cast<long long>(trial), spec.c_str());
      ++failures;
      continue;
    }

    // One targeted mutation; the linter must reject with the right code.
    Scenario bad = sc;
    std::string expect1;
    std::string expect2;  // Alternative acceptable code ("" = none).
    switch (rng.below(4)) {
      case 0: {  // Dangling edge name.
        bad.injections[rng.below(bad.injections.size())].route.push_back(
            "no_such_edge");
        expect1 = "dangling-edge";
        break;
      }
      case 1: {  // Re-crossing the first edge: non-simple or discontiguous.
        auto& route = bad.injections[rng.below(bad.injections.size())].route;
        route.push_back(route.front());
        expect1 = "route-not-simple";
        expect2 = "route-not-path";
        break;
      }
      case 2: {  // Zero-budget window over a nonempty script.
        bad.window_w = 1;
        bad.window_r = Rat(0);
        expect1 = "window-infeasible";
        break;
      }
      default: {  // Reroute under a non-historic protocol.
        bad.protocol = "NTG";
        ScenarioReroute rr;
        rr.t = bad.injections.front().t + 1;
        rr.packet_ordinal = 0;
        rr.suffix.push_back(bad.injections.front().route.front());
        bad.reroutes.push_back(std::move(rr));
        expect1 = "reroute-nonhistoric";
        break;
      }
    }
    std::istringstream bad_is(to_text(bad));
    const LintReport rep =
        lint_scenario(parse_scenario(bad_is, "fuzz"), "fuzz");
    if (rep.ok() || (!has_code(rep, expect1) &&
                     (expect2.empty() || !has_code(rep, expect2)))) {
      std::printf("LINT FALSE NEGATIVE: trial %lld on %s expected %s%s%s\n",
                  static_cast<long long>(trial), spec.c_str(),
                  expect1.c_str(), expect2.empty() ? "" : " or ",
                  expect2.c_str());
      ++failures;
    }
  }
  return failures;
}

/// Minimal deterministic adversary for corpus generation: replays a queue
/// of per-call injections.
struct QueueDriver final : Adversary {
  std::vector<Injection> pending;
  void step(Time, const Engine&, AdversaryStep& out) override {
    for (auto& inj : pending) out.injections.push_back(inj);
    pending.clear();
  }
};

/// One valid run trace: a short random injection script on `spec`.
std::string make_trace_corpus_entry(const std::string& spec,
                                    const std::string& proto, Rng& rng) {
  const Graph graph = parse_topology_spec(spec).graph;
  auto protocol = make_protocol(proto);
  RunTraceMeta meta;
  meta.protocol = proto;
  meta.seed = 7;
  std::ostringstream run_os;
  RunTraceWriter writer(run_os, graph, meta);
  EngineConfig cfg;
  cfg.sinks.trace = &writer;
  Engine eng(graph, *protocol, cfg);

  QueueDriver driver;
  std::uint64_t tag = 1;
  for (Time t = 1; t <= 12; ++t) {
    if (rng.chance(0.7))
      driver.pending.push_back(
          Injection{random_route(graph, rng, 3), tag++});
    eng.step(&driver);
  }
  eng.drain(64);
  writer.finish(eng.total_injected(), eng.total_absorbed());
  return run_os.str();
}

std::string mutate_text(const std::string& text, Rng& rng) {
  std::string out = text;
  const auto split = [](const std::string& s) {
    std::vector<std::string> lines;
    std::istringstream is(s);
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
    return lines;
  };
  const auto join = [](const std::vector<std::string>& lines) {
    std::string s;
    for (const std::string& l : lines) {
      s += l;
      s += '\n';
    }
    return s;
  };
  switch (rng.below(5)) {
    case 0:  // Truncate mid-stream.
      out = out.substr(0, rng.below(out.size() + 1));
      break;
    case 1:  // Flip one byte.
      if (!out.empty())
        out[rng.below(out.size())] = static_cast<char>(rng.below(256));
      break;
    case 2: {  // Delete a line.
      auto lines = split(out);
      if (!lines.empty())
        lines.erase(lines.begin() +
                    static_cast<std::ptrdiff_t>(rng.below(lines.size())));
      out = join(lines);
      break;
    }
    case 3: {  // Duplicate a line.
      auto lines = split(out);
      if (!lines.empty()) {
        const std::size_t i = rng.below(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                     lines[i]);
      }
      out = join(lines);
      break;
    }
    default: {  // Insert a garbage line.
      auto lines = split(out);
      lines.insert(
          lines.begin() + static_cast<std::ptrdiff_t>(
                              rng.below(lines.size() + 1)),
          "Z 18446744073709551616 garbage -1");
      out = join(lines);
      break;
    }
  }
  return out;
}

/// Seed documents for the JSON cases: the shapes the metrics, lint and
/// verify emitters produce, plus a hand-built document with every value
/// kind, escapes and borderline numbers.
std::vector<std::string> make_json_corpus() {
  std::vector<std::string> corpus;
  obs::MetricRegistry reg;
  reg.counter("aqt_fuzz_total", "a \"quoted\" help", "edge", "e\\0").inc(3);
  reg.gauge("aqt_fuzz_ratio", "a ratio").set(0.125);
  reg.histogram("aqt_fuzz_nanos", "a histogram").add(1234);
  corpus.push_back(obs::to_json(reg, "aqt-fuzz"));
  LintReport lint;
  lint.file = "x.aqts";
  lint.findings.push_back(LintFinding{"dangling-edge", 2, "edge 'a\tb'"});
  corpus.push_back(to_json(std::vector<LintReport>{lint}));
  VerifyReport verify;
  verify.file = "run.aqtt";
  verify.protocol = "FIFO";
  verify.trace_hash = 0x0123456789abcdefULL;
  corpus.push_back(to_json(std::vector<VerifyReport>{verify}));
  corpus.push_back(
      R"({"name":"fuzz \u00e9\u0001\r","steps":-0,"w":12,"r":"1/4",)"
      R"("rate":0.25,"big":1.7976931348623157e308,"neg":-2.5e-300,)"
      R"("flags":[true,false,null],"nested":{"a":[[],{}],"b":"\\\"\/"}})");
  return corpus;
}

/// One mutation of a JSON document: generic text damage, a spliced
/// JSON-significant token, nesting that straddles the depth bound, a
/// duplicate key, a huge or borderline number, or an oversized document.
std::string mutate_json(const std::string& doc, Rng& rng) {
  switch (rng.below(6)) {
    case 0:
      return mutate_text(doc, rng);
    case 1: {
      static constexpr const char* kTokens[] = {
          "\"", "\\", "{", "}", "[", "]", ",", ":", "\\u0000", "\\ud800",
          "\\u00", "\x01", "\x7f", "\xff", "-", ".", "e", "nul", "tru", " "};
      std::string out = doc;
      out.insert(rng.below(out.size() + 1),
                 kTokens[rng.below(std::size(kTokens))]);
      return out;
    }
    case 2: {
      const std::size_t depth = kMaxJsonDepth - 2 + rng.below(5);
      return std::string(depth, '[') + doc + std::string(depth, ']');
    }
    case 3:
      return "{\"dup\":" + doc + ",\"dup\":0}";
    case 4: {
      static constexpr const char* kNumbers[] = {
          "1e999", "-1e999", "99999999999999999999", "-9223372036854775809",
          "9223372036854775807", "-9223372036854775808", "1e-400",
          "4.9406564584124654e-324", "-0", "-0.0", "0.1", "1E+2", "00", "1.e5",
          "123456789012345678"};
      const std::string number = kNumbers[rng.below(std::size(kNumbers))];
      const std::size_t at = doc.find_first_of("0123456789", rng.below(
                                                   doc.size() + 1));
      if (at == std::string::npos) return doc + number;
      std::size_t end = at;
      while (end < doc.size() &&
             std::string_view("0123456789.eE+-").find(doc[end]) !=
                 std::string_view::npos)
        ++end;
      return doc.substr(0, at) + number + doc.substr(end);
    }
    default:
      return doc + std::string(kMaxJsonBytes, ' ');
  }
}

/// The shared parser's contract on one document: a PreconditionError, or
/// a value whose canonical form is a fixed point of write_json ->
/// parse_json -> write_json.  Returns the violation, or "" when it holds.
std::string check_json_case(const std::string& text) {
  JsonValue value;
  try {
    value = parse_json(text, "fuzz");
  } catch (const PreconditionError&) {
    return "";  // Diagnostic rejection.
  } catch (const std::exception& e) {
    return std::string("parse threw a foreign exception: ") + e.what();
  }
  try {
    const std::string canonical = write_json(value);
    const std::string again = write_json(parse_json(canonical, "canonical"));
    if (again != canonical)
      return "canonical form is not a fixed point: " + canonical + " -> " +
             again;
  } catch (const std::exception& e) {
    return std::string("canonical form does not re-parse: ") + e.what();
  }
  return "";
}

/// Hardened-parser fuzz: mutated traces must parse or be rejected with a
/// PreconditionError — any crash, abort, or foreign exception is a
/// failure.  Each trial also feeds one mutated document to the shared
/// JSON parser, and the first JSON failure ends the phase.  Returns the
/// number of failing trials.
std::int64_t run_trace_fuzz(std::int64_t trials, Rng& master) {
  std::vector<std::string> corpus;
  {
    Rng rng = master.split();
    corpus.push_back(make_trace_corpus_entry("ring:6", "FIFO", rng));
    corpus.push_back(make_trace_corpus_entry("grid:3x3", "LIS", rng));
  }
  // The unmutated corpus must be clean: parse and verify with no findings.
  for (const std::string& entry : corpus) {
    std::istringstream run_is(entry);
    const VerifyReport rep =
        verify_run_trace(parse_run_trace(run_is, "corpus"), "corpus");
    if (!rep.ok()) {
      std::printf("TRACE CORPUS NOT CLEAN: [%s] %s\n",
                  rep.findings[0].code.c_str(),
                  rep.findings[0].message.c_str());
      return 1;
    }
  }

  const std::vector<std::string> json_corpus = make_json_corpus();
  for (const std::string& doc : json_corpus) {
    try {
      (void)parse_json(doc, "json corpus");
    } catch (const PreconditionError& e) {
      std::printf("JSON CORPUS NOT CLEAN: %s\n", e.what());
      return 1;
    }
  }

  std::int64_t failures = 0;
  for (std::int64_t trial = 0; trial < trials; ++trial) {
    Rng rng = master.split();
    std::istringstream is(
        mutate_text(corpus[rng.below(corpus.size())], rng));
    try {
      const RunTrace tr = parse_run_trace(is, "fuzz");
      // Whatever parses must also verify without crashing; findings are the
      // expected outcome for a tampered trace.
      (void)verify_run_trace(tr, "fuzz");
    } catch (const PreconditionError&) {
      // The hardened-parser contract: diagnostic rejection.
    } catch (const std::exception& e) {
      std::printf("PARSER MISBEHAVIOUR: trial %lld threw %s\n",
                  static_cast<long long>(trial), e.what());
      ++failures;
    }
    std::string doc = json_corpus[rng.below(json_corpus.size())];
    for (std::uint64_t k = 1 + rng.below(3); k > 0; --k)
      doc = mutate_json(doc, rng);
    const std::string why = check_json_case(doc);
    if (!why.empty()) {
      std::printf("JSON PARSER MISBEHAVIOUR: trial %lld: %s\n",
                  static_cast<long long>(trial), why.c_str());
      return failures + 1;
    }
  }
  return failures;
}

/// How one scripted observer-effect run is instrumented.
enum class ObsStack {
  kBare,       ///< No observers.
  kFullObs,    ///< Profiler + events + timeseries + watchdog.
  kPhaseTrace  ///< Perfetto phase-trace recorder + timeseries fanout.
};

/// Runs one scripted trial and returns the run-trace content hash.  Every
/// ObsStack variant must produce the same hash: observation never perturbs
/// a run.
std::uint64_t scripted_run_hash(const Graph& g, const std::string& proto,
                                const std::vector<std::vector<Injection>>& script,
                                ObsStack stack) {
  auto protocol = make_protocol(proto);
  RunTraceMeta meta;
  meta.protocol = proto;
  meta.seed = 11;
  std::ostringstream trace_os;
  RunTraceWriter writer(trace_os, g, meta);
  obs::StepProfiler profiler;
  std::ostringstream events_os;
  obs::JsonlEventWriter events(events_os, g);
  obs::TimeseriesConfig ts_cfg;
  ts_cfg.capacity = 16;  // Tiny: forces compactions on longer scripts.
  if (g.edge_count() > 0) ts_cfg.watched.push_back(0);
  obs::TimeseriesRecorder timeseries(ts_cfg, &g);
  obs::WatchdogConfig wd_cfg;
  wd_cfg.check_every = 8;
  wd_cfg.window = 8;
  wd_cfg.min_samples = 4;
  obs::StabilityWatchdog watchdog(wd_cfg);
  obs::StepSampleFanout fanout;
  obs::TraceEventLog trace_log;
  obs::PhaseTraceRecorder::Config pt_cfg;
  pt_cfg.stride = 2;
  obs::PhaseTraceRecorder phase_trace(trace_log, pt_cfg);
  obs::RunTraceFanout trace_sinks;
  trace_sinks.add(&writer);
  EngineConfig cfg;
  if (stack == ObsStack::kFullObs) {
    cfg.sinks.profile = &profiler;
    trace_sinks.add(&events);
    fanout.add(&timeseries).add(&watchdog);
    cfg.sinks.samples = fanout.as_sink();
  } else if (stack == ObsStack::kPhaseTrace) {
    cfg.sinks.profile = &phase_trace;
    fanout.add(&timeseries);
    cfg.sinks.samples = fanout.as_sink();
  }
  cfg.sinks.trace = trace_sinks.as_sink();
  Engine eng(g, *protocol, cfg);
  QueueDriver driver;
  for (const auto& step_inj : script) {
    driver.pending = step_inj;
    eng.step(&driver);
  }
  eng.drain(256);
  writer.finish(eng.total_injected(), eng.total_absorbed());
  if (stack == ObsStack::kFullObs) {
    AQT_CHECK(events.lines_written() > 0 || eng.total_injected() == 0,
              "observed run emitted no events");
    AQT_CHECK(!timeseries.rows().empty(), "observed run recorded no rows");
  }
  if (stack == ObsStack::kPhaseTrace)
    AQT_CHECK(trace_log.size() > 0, "traced run logged no spans");
  return writer.content_hash();
}

/// Observer-effect fuzz: enabling the observability stack must leave the
/// recorded run byte-identical.  Trials run on `jobs` workers (per-trial
/// RNG streams are pre-split serially, so the verdict is jobs-invariant);
/// failures print after the batch, in trial order.  Returns the number of
/// failing trials.
std::int64_t run_obs_fuzz(std::int64_t trials, Rng& master, unsigned jobs) {
  std::vector<Rng> streams;
  streams.reserve(static_cast<std::size_t>(trials));
  for (std::int64_t trial = 0; trial < trials; ++trial)
    streams.push_back(master.split());

  std::vector<std::string> messages(streams.size());
  const std::vector<std::string> errors = parallel_for_each(
      streams.size(), jobs,
      [&](std::size_t trial) {
        Rng rng = streams[trial];
        const Graph g = random_topology(rng);
        const std::vector<std::string> protocols = {"FIFO", "LIFO", "LIS",
                                                    "NTG"};
        const std::string proto = protocols[rng.below(protocols.size())];
        std::vector<std::vector<Injection>> script;
        std::uint64_t tag = 1;
        const Time steps = rng.range(10, 40);
        for (Time t = 0; t < steps; ++t) {
          std::vector<Injection> step_inj;
          const std::int64_t count = rng.range(0, 2);
          for (std::int64_t i = 0; i < count; ++i)
            step_inj.push_back(Injection{random_route(g, rng, 4), tag++});
          script.push_back(std::move(step_inj));
        }
        const std::uint64_t bare =
            scripted_run_hash(g, proto, script, ObsStack::kBare);
        const std::uint64_t observed =
            scripted_run_hash(g, proto, script, ObsStack::kFullObs);
        const std::uint64_t traced =
            scripted_run_hash(g, proto, script, ObsStack::kPhaseTrace);
        if (bare != observed || bare != traced) {
          char buf[200];
          std::snprintf(buf, sizeof buf,
                        "OBSERVER EFFECT: trial %lld protocol %s trace hash "
                        "%s (bare) vs %s (observed) vs %s (phase-traced)",
                        static_cast<long long>(trial), proto.c_str(),
                        hash_hex(bare).c_str(), hash_hex(observed).c_str(),
                        hash_hex(traced).c_str());
          messages[trial] = buf;
        }
      });

  std::int64_t failures = 0;
  for (std::size_t trial = 0; trial < messages.size(); ++trial) {
    if (!errors[trial].empty()) messages[trial] = errors[trial];
    if (messages[trial].empty()) continue;
    std::printf("%s\n", messages[trial].c_str());
    ++failures;
  }
  return failures;
}

/// One engine-vs-reference lockstep trial's outcome.
struct TrialOutcome {
  std::uint64_t checks = 0;  ///< Per-step snapshot comparisons made.
  std::string message;       ///< Nonempty = failure description.
};

/// One differential trial: random topology/protocol/script, engine and
/// reference stepped in lockstep with invariants audited, the recorded run
/// fed through the N-version verifier.  Self-contained (owns its RNG and
/// all state), so trials run on any pool worker with identical results.
TrialOutcome run_differential_trial(Rng rng, std::int64_t trial,
                                    Time steps) {
  static const std::vector<std::string> protocols = {
      "FIFO", "LIFO", "LIS", "NIS", "FTG", "NTG", "FFS", "NTS"};
  TrialOutcome out;
  const Graph g = random_topology(rng);
  const std::string proto = protocols[rng.below(protocols.size())];
  const bool historic = make_protocol(proto)->is_historic();

  auto protocol = make_protocol(proto);
  // The auditor re-checks every model invariant after each step, and the
  // whole run is recorded and fed to the N-version verifier below, so
  // each fuzz trial stress-tests the invariant layer, the trace format,
  // and the offline model all at once.
  RunTraceMeta meta;
  meta.protocol = proto;
  meta.seed = static_cast<std::uint64_t>(trial);
  std::ostringstream trace_os;
  RunTraceWriter writer(trace_os, g, meta);
  EngineConfig eng_cfg;
  eng_cfg.audit_invariants = true;
  eng_cfg.sinks.trace = &writer;
  Engine eng(g, *protocol, eng_cfg);
  ReferenceSimulator ref(g, proto);

  // Shared initial configuration.
  const std::int64_t initial = rng.range(0, 6);
  for (std::int64_t i = 0; i < initial; ++i) {
    const Route route = random_route(g, rng, 4);
    eng.add_initial_packet(route, static_cast<std::uint64_t>(1000 + i));
    ref.add_initial_packet(route, static_cast<std::uint64_t>(1000 + i));
  }

  struct Driver final : Adversary {
    std::vector<Injection> injections;
    std::vector<Reroute> reroutes;
    void step(Time, const Engine&, AdversaryStep& out_step) override {
      for (auto& inj : injections) out_step.injections.push_back(inj);
      for (auto& rr : reroutes) out_step.reroutes.push_back(rr);
      injections.clear();
      reroutes.clear();
    }
  } driver;

  std::uint64_t tag = 1;
  for (Time t = 1; t <= steps; ++t) {
    // Random injections.
    std::vector<Injection> step_inj;
    const std::int64_t count = rng.range(0, 2);
    for (std::int64_t i = 0; i < count; ++i)
      step_inj.push_back(Injection{random_route(g, rng, 4), tag++});
    driver.injections = step_inj;

    // Occasionally one random legal reroute (historic protocols only):
    // pick a buffered packet that is not a buffer front.
    std::vector<ReferenceSimulator::RefReroute> ref_rr;
    if (historic && rng.chance(0.3)) {
      std::vector<PacketId> candidates;
      for (EdgeId e = 0; e < g.edge_count(); ++e) {
        bool first = true;
        for (const BufferEntry& be : eng.buffer(e).ordered_entries()) {
          if (!first) candidates.push_back(be.packet);
          first = false;
        }
      }
      if (!candidates.empty()) {
        const PacketId id = candidates[rng.below(candidates.size())];
        const Packet& p = eng.packet(id);
        std::vector<bool> used(g.node_count(), false);
        for (std::size_t h = 0; h <= p.hop; ++h) {
          used[g.tail(p.route[h])] = true;
          used[g.head(p.route[h])] = true;
        }
        Route suffix;
        NodeId at = g.head(p.route[p.hop]);
        for (int len = 0; len < 3; ++len) {
          Route options;
          for (EdgeId e : g.out_edges(at))
            if (!used[g.head(e)]) options.push_back(e);
          if (options.empty()) break;
          const EdgeId pick = options[rng.below(options.size())];
          suffix.push_back(pick);
          at = g.head(pick);
          used[at] = true;
        }
        driver.reroutes.push_back(Reroute{id, suffix});
        ref_rr.push_back(ReferenceSimulator::RefReroute{
            eng.packet_meta(id).ordinal, suffix});
      }
    }

    eng.step(&driver);
    ref.step(step_inj, ref_rr);
    ++out.checks;
    if (!equal(engine_snapshot(eng), ref.snapshot())) {
      std::ostringstream msg;
      msg << "DIVERGENCE: trial " << trial << " protocol " << proto
          << " step " << t;
      out.message = msg.str();
      return out;
    }
  }

  writer.finish(eng.total_injected(), eng.total_absorbed());
  std::istringstream trace_is(trace_os.str());
  const VerifyReport vrep =
      verify_run_trace(parse_run_trace(trace_is, "trial"), "trial");
  if (!vrep.ok()) {
    std::ostringstream msg;
    msg << "TRACE VERIFICATION FAILURE: trial " << trial << " protocol "
        << proto << ": [" << vrep.findings[0].code << "] "
        << vrep.findings[0].message;
    out.message = msg.str();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("aqt-fuzz", "differential fuzzing: Engine vs ReferenceSimulator");
  cli.flag("trials", "200", "random scenarios to run");
  cli.flag("steps", "80", "steps per scenario");
  cli.flag("lint-trials", "100", "random scenarios for the aqt-lint check");
  cli.flag("trace-trials", "150",
           "mutated traces for the hardened-parser check");
  cli.flag("obs-trials", "40",
           "paired runs for the observer-effect check (obs on vs off)");
  add_seed_flag(cli);
  add_jobs_flag(cli);
  add_metrics_flags(cli);
  if (!cli.parse(argc, argv)) return 0;

  const std::int64_t trials = cli.get_int("trials");
  const Time steps = cli.get_int("steps");
  const unsigned jobs = get_jobs(cli);
  Rng master(get_seed(cli));

  // Differential phase on the run-pool: per-trial RNG streams are split
  // off the master serially (so the streams do not depend on --jobs), then
  // the self-contained trials execute on the worker pool.  Failures print
  // after the batch in trial order.
  std::vector<Rng> streams;
  streams.reserve(static_cast<std::size_t>(trials));
  for (std::int64_t trial = 0; trial < trials; ++trial)
    streams.push_back(master.split());
  std::vector<TrialOutcome> outcomes(streams.size());
  const std::vector<std::string> trial_errors = parallel_for_each(
      streams.size(), jobs,
      [&](std::size_t i) {
        outcomes[i] = run_differential_trial(
            streams[i], static_cast<std::int64_t>(i), steps);
      });
  std::uint64_t checks = 0;
  bool diverged = false;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    checks += outcomes[i].checks;
    const std::string& msg =
        trial_errors[i].empty() ? outcomes[i].message : trial_errors[i];
    if (!msg.empty()) {
      std::printf("%s\n", msg.c_str());
      diverged = true;
    }
  }
  if (diverged) return 1;
  const std::int64_t lint_trials = cli.get_int("lint-trials");
  const std::int64_t lint_failures = run_lint_fuzz(lint_trials, master);
  if (lint_failures > 0) {
    std::printf("aqt-fuzz: %lld of %lld lint trials misjudged\n",
                static_cast<long long>(lint_failures),
                static_cast<long long>(lint_trials));
    return 1;
  }
  const std::int64_t trace_trials = cli.get_int("trace-trials");
  const std::int64_t trace_failures = run_trace_fuzz(trace_trials, master);
  if (trace_failures > 0) {
    std::printf("aqt-fuzz: %lld of %lld trace-parser trials misbehaved\n",
                static_cast<long long>(trace_failures),
                static_cast<long long>(trace_trials));
    return 1;
  }
  const std::int64_t obs_trials = cli.get_int("obs-trials");
  const std::int64_t obs_failures = run_obs_fuzz(obs_trials, master, jobs);
  if (obs_failures > 0) {
    std::printf("aqt-fuzz: %lld of %lld observer-effect trials perturbed "
                "the run\n",
                static_cast<long long>(obs_failures),
                static_cast<long long>(obs_trials));
    return 1;
  }

  if (!cli.get("metrics-out").empty() || !cli.get("metrics-prom").empty() ||
      !cli.get("metrics-csv").empty()) {
    obs::MetricRegistry reg;
    reg.counter("aqt_fuzz_differential_trials_total",
                "Engine-vs-reference lockstep trials")
        .set(static_cast<std::uint64_t>(trials));
    reg.counter("aqt_fuzz_lockstep_checks_total",
                "Per-step snapshot comparisons")
        .set(checks);
    reg.counter("aqt_fuzz_lint_trials_total", "Random aqt-lint trials")
        .set(static_cast<std::uint64_t>(lint_trials));
    reg.counter("aqt_fuzz_trace_trials_total",
                "Mutated-trace hardened-parser trials")
        .set(static_cast<std::uint64_t>(trace_trials));
    reg.counter("aqt_fuzz_obs_trials_total", "Observer-effect paired runs")
        .set(static_cast<std::uint64_t>(obs_trials));
    reg.gauge("aqt_fuzz_ok", "1 when every phase passed, else 0").set(1.0);
    obs::export_cli_metrics(cli, reg, "aqt-fuzz");
  }

  std::printf("aqt-fuzz: %lld trials x %lld steps, %llu lockstep "
              "comparisons (invariants audited, run traces verified), "
              "no divergence; %lld lint trials, no misjudgement; "
              "%lld trace-parser trials, no misbehaviour; "
              "%lld observer-effect trials, traces byte-identical\n",
              static_cast<long long>(trials), static_cast<long long>(steps),
              static_cast<unsigned long long>(checks),
              static_cast<long long>(lint_trials),
              static_cast<long long>(trace_trials),
              static_cast<long long>(obs_trials));
  return 0;
}
