#include "aqt/trace/trace.hpp"

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

void ScheduleRecorder::record_reroute(std::uint64_t ordinal,
                                      RouteSpan new_suffix) {
  trace_.record_reroute(now_, ordinal,
                        Route(new_suffix.begin(), new_suffix.end()));
}

void ScheduleRecorder::record_inject(std::uint64_t, std::uint64_t tag,
                                     RouteSpan route) {
  trace_.record_injection(now_,
                          Injection{Route(route.begin(), route.end()), tag});
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
