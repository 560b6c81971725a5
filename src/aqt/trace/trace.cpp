#include "aqt/trace/trace.hpp"

#include <fstream>
#include <sstream>

#include "aqt/core/engine.hpp"
#include "aqt/util/check.hpp"

namespace aqt {

void Trace::record_injection(Time t, const Injection& injection) {
  AQT_REQUIRE(t >= last_time_, "trace events must be time-ordered");
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kInjection;
  ev.t = t;
  ev.tag = injection.tag;
  ev.edges = injection.route;
  events_.push_back(std::move(ev));
  ++injections_;
  last_time_ = t;
}

void Trace::record_reroute(Time t, std::uint64_t target_ordinal,
                           const Route& new_suffix) {
  AQT_REQUIRE(t >= last_time_, "trace events must be time-ordered");
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kReroute;
  ev.t = t;
  ev.ordinal = target_ordinal;
  ev.edges = new_suffix;
  events_.push_back(std::move(ev));
  last_time_ = t;
}

void Trace::save(std::ostream& os, const Graph& graph) const {
  for (const TraceEvent& ev : events_) {
    if (ev.kind == TraceEvent::Kind::kInjection) {
      os << "I " << ev.t << ' ' << ev.tag;
    } else {
      os << "R " << ev.t << ' ' << ev.ordinal;
    }
    for (EdgeId e : ev.edges) os << ' ' << graph.edge(e).name;
    os << '\n';
  }
}

void Trace::save_file(const std::string& path, const Graph& graph) const {
  std::ofstream out(path);
  AQT_REQUIRE(static_cast<bool>(out), "cannot open " << path);
  save(out, graph);
}

Trace Trace::load(std::istream& is, const Graph& graph) {
  // Hardened against untrusted input: every malformed, truncated, or
  // unresolvable line is rejected with a PreconditionError naming the line
  // — including the cases (unknown edge, time regression) that would
  // otherwise surface as context-free errors from deeper layers.
  Trace trace;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    char kind = 0;
    Time t = 0;
    std::uint64_t id = 0;
    ls >> kind >> t >> id;
    AQT_REQUIRE(ls && (kind == 'I' || kind == 'R'),
                "malformed trace line " << line_no << ": " << line);
    AQT_REQUIRE(t >= 0, "negative event time at line " << line_no << ": "
                                                       << line);
    AQT_REQUIRE(t >= trace.last_time(),
                "time regression at line " << line_no << ": t=" << t
                                           << " after t="
                                           << trace.last_time());
    Route edges;
    std::string name;
    while (ls >> name) {
      const auto e = graph.find_edge(name);
      AQT_REQUIRE(e.has_value(), "unknown edge '"
                                     << name << "' at line " << line_no
                                     << ": " << line);
      edges.push_back(*e);
    }
    if (kind == 'I') {
      AQT_REQUIRE(!edges.empty(), "injection without route at line "
                                      << line_no);
      trace.record_injection(t, Injection{std::move(edges), id});
    } else {
      trace.record_reroute(t, id, edges);
    }
  }
  return trace;
}

Trace Trace::load_file(const std::string& path, const Graph& graph) {
  std::ifstream in(path);
  AQT_REQUIRE(static_cast<bool>(in), "cannot open " << path);
  return load(in, graph);
}

RecordingAdversary::RecordingAdversary(Adversary& inner, Trace& out)
    : inner_(inner), trace_(out) {}

void RecordingAdversary::step(Time now, const Engine& engine,
                              AdversaryStep& out) {
  const std::size_t inj_before = out.injections.size();
  const std::size_t rr_before = out.reroutes.size();
  inner_.step(now, engine, out);
  // Record reroutes first to mirror the engine's application order
  // (reroutes are applied before injections within a step).
  for (std::size_t i = rr_before; i < out.reroutes.size(); ++i) {
    const Reroute& rr = out.reroutes[i];
    trace_.record_reroute(now, engine.packet_meta(rr.packet).ordinal,
                          rr.new_suffix);
  }
  for (std::size_t i = inj_before; i < out.injections.size(); ++i)
    trace_.record_injection(now, out.injections[i]);
}

bool RecordingAdversary::finished(Time now) const {
  return inner_.finished(now);
}

ReplayAdversary::ReplayAdversary(const Trace& trace) : trace_(trace) {}

void ReplayAdversary::step(Time now, const Engine& engine,
                           AdversaryStep& out) {
  const auto& events = trace_.events();
  AQT_REQUIRE(next_ >= events.size() || events[next_].t >= now,
              "replay started mid-trace: event at t=" << events[next_].t
                                                      << " but now=" << now);
  while (next_ < events.size() && events[next_].t == now) {
    const TraceEvent& ev = events[next_++];
    if (ev.kind == TraceEvent::Kind::kInjection) {
      out.injections.push_back(Injection{ev.edges, ev.tag});
      continue;
    }
    // Reroute: resolve the ordinal under *this* execution.  Under a
    // different protocol the packet may already be absorbed, or sit at a
    // position where the recorded suffix no longer splices into a valid
    // route; both cases are skipped (the adversary loses that move).
    const PacketId id = engine.arena().find_by_ordinal(ev.ordinal);
    if (id == kNoPacket) {
      if (skipped_++ == 0) first_skipped_ = next_ - 1;
      continue;
    }
    const Packet& p = engine.packet(id);
    Route updated(p.route.begin(),
                  p.route.begin() + static_cast<std::ptrdiff_t>(p.hop) + 1);
    updated.insert(updated.end(), ev.edges.begin(), ev.edges.end());
    if (!engine.graph().is_simple_path(updated)) {
      if (skipped_++ == 0) first_skipped_ = next_ - 1;
      continue;
    }
    out.reroutes.push_back(Reroute{id, ev.edges});
  }
}

bool ReplayAdversary::finished(Time) const {
  return next_ >= trace_.events().size();
}

}  // namespace aqt
