#include "aqt/core/engine.hpp"

#include <algorithm>
#include <bit>

#include "aqt/core/invariants.hpp"
#include "aqt/core/obs_sink.hpp"
#include "aqt/core/trace_sink.hpp"
#include "aqt/util/check.hpp"

namespace {

/// RAII phase bracket: near-zero when the sink is null (one branch at each
/// end), and exception-safe so a throwing adversary cannot leave a phase
/// open.
class PhaseScope {
 public:
  PhaseScope(aqt::StepPhaseSink* sink, aqt::StepPhase phase)
      : sink_(sink), phase_(phase) {
    if (sink_ != nullptr) sink_->begin_phase(phase_);
  }
  ~PhaseScope() {
    if (sink_ != nullptr) sink_->end_phase(phase_);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  aqt::StepPhaseSink* sink_;
  aqt::StepPhase phase_;
};

}  // namespace

namespace aqt {

Engine::Engine(const Graph& graph, const Protocol& protocol,
               EngineConfig config)
    : graph_(graph),
      protocol_(protocol),
      key_rule_(protocol.key_rule()),
      config_(config),
      buffers_(graph.edge_count(),
               Buffer(Buffer::layout_for(protocol.key_rule()))),
      active_words_((graph.edge_count() + 63) / 64, 0),
      metrics_(graph.edge_count()) {
  if (config_.audit_rates) audit_.emplace(graph.edge_count());
  if (config_.audit_invariants)
    invariants_ = std::make_unique<InvariantAuditor>(*this);
}

Engine::~Engine() = default;

void Engine::set_active_bit(EdgeId e) {
  std::uint64_t& w = active_words_[e >> 6];
  const std::uint64_t mask = std::uint64_t{1} << (e & 63);
  if ((w & mask) == 0) {
    w |= mask;
    ++active_count_;
  }
}

void Engine::clear_active_bit(EdgeId e) {
  std::uint64_t& w = active_words_[e >> 6];
  const std::uint64_t mask = std::uint64_t{1} << (e & 63);
  if ((w & mask) != 0) {
    w &= ~mask;
    --active_count_;
  }
}

bool Engine::test_active_bit(EdgeId e) const {
  return (active_words_[e >> 6] >> (e & 63)) & 1;
}

template <typename Fn>
void Engine::for_each_active(Fn&& fn) const {
  for (std::size_t wi = 0; wi < active_words_.size(); ++wi) {
    std::uint64_t w = active_words_[wi];
    while (w != 0) {
      const int b = std::countr_zero(w);
      w &= w - 1;
      fn(static_cast<EdgeId>((wi << 6) + static_cast<std::size_t>(b)));
    }
  }
}

PacketId Engine::add_initial_packet(const Route& route, std::uint64_t tag) {
  AQT_REQUIRE(!stepping_started_,
              "initial packets must be added before the first step");
  const std::optional<RouteRef> ref = intern_route(route);
  AQT_REQUIRE(ref.has_value(), "initial packet route is not a simple path");
  const PacketId id = arena_.create(*ref, /*inject_time=*/0, tag);
  enqueue(id, /*t=*/0);
  const std::uint64_t ordinal = arena_.meta(id).ordinal;
  if (config_.sinks.trace)
    config_.sinks.trace->record_initial(ordinal, tag, arena_[id].route);
  if (config_.sinks.events)
    config_.sinks.events->on_inject(0, ordinal, tag, arena_[id].route,
                                    /*initial=*/true);
  // The initial configuration is part of the observable state at time 0.
  const EdgeId e = arena_[id].route[0];
  metrics_.observe_queue(e, buffers_[e].size());
  return id;
}

const Buffer& Engine::buffer(EdgeId e) const {
  AQT_REQUIRE(e < buffers_.size(), "edge id out of range: " << e);
  return buffers_[e];
}

std::size_t Engine::queue_size(EdgeId e) const { return buffer(e).size(); }

std::uint64_t Engine::max_queue_now() const {
  std::uint64_t best = 0;
  for_each_active([&](EdgeId e) {
    best = std::max(best, static_cast<std::uint64_t>(buffers_[e].size()));
  });
  return best;
}

std::uint64_t Engine::buffer_bytes() const {
  std::uint64_t bytes = 0;
  for (const Buffer& b : buffers_) bytes += b.capacity_bytes();
  return bytes;
}

std::vector<EdgeId> Engine::active_edges() const {
  std::vector<EdgeId> out;
  out.reserve(active_count_);
  for_each_active([&](EdgeId e) { out.push_back(e); });
  return out;
}

void Engine::enqueue(PacketId id, Time t) {
  Packet& p = arena_[id];
  AQT_CHECK(p.hop < p.route.size(), "enqueue of finished packet");
  const EdgeId e = p.route[p.hop];
  p.arrival_time = t;
  p.arrival_seq = seq_++;
  // The switch mirrors the closed-form formulas documented on KeyRule; any
  // protocol not covered (kCustom) pays the virtual dispatch.  Saving that
  // indirect call per enqueue is measurable because enqueue runs for every
  // hop of every packet.
  const auto seq = static_cast<std::int64_t>(p.arrival_seq);
  PriorityKey k;
  switch (key_rule_) {
    case KeyRule::kFifo:
      k = {seq, 0};
      break;
    case KeyRule::kLifo:
      k = {-seq, 0};
      break;
    case KeyRule::kLis:
      k = {p.inject_time, seq};
      break;
    case KeyRule::kNis:
      k = {-p.inject_time, -seq};
      break;
    case KeyRule::kFtg:
      k = {-static_cast<std::int64_t>(p.remaining()), seq};
      break;
    case KeyRule::kNtg:
      k = {static_cast<std::int64_t>(p.remaining()), seq};
      break;
    case KeyRule::kFfs:
      k = {-static_cast<std::int64_t>(p.traversed()), seq};
      break;
    case KeyRule::kNts:
      k = {static_cast<std::int64_t>(p.traversed()), seq};
      break;
    case KeyRule::kCustom:
      k = protocol_.key(p, t, p.arrival_seq);
      break;
  }
  buffers_[e].push(BufferEntry{k.k1, k.k2, p.arrival_seq, id});
  set_active_bit(e);
}

void Engine::absorb(PacketId id, Time t) {
  const Packet& p = arena_[id];
  metrics_.observe_absorb(t - p.inject_time);
  if (config_.sinks.trace != nullptr || config_.sinks.events != nullptr) {
    const std::uint64_t ordinal = arena_.meta(id).ordinal;
    if (config_.sinks.trace) config_.sinks.trace->record_absorb(ordinal);
    if (config_.sinks.events)
      config_.sinks.events->on_absorb(t, ordinal, t - p.inject_time);
  }
  // Initial-configuration packets (inject_time 0) are not adversary
  // injections; rate constraints (and Observation 4.4) treat them
  // separately, so the audit records only packets injected at steps >= 1.
  if (audit_ && p.inject_time > 0) audit_->add(p.route, p.inject_time);
  arena_.destroy(id);
  ++absorbed_;
}

void Engine::apply_reroute(const Reroute& rr) {
  AQT_REQUIRE(arena_.is_live(rr.packet),
              "reroute of dead packet " << rr.packet);
  AQT_REQUIRE(protocol_.is_historic(),
              "rerouting requires a historic protocol (Lemma 3.3); "
                  << protocol_.name() << " is not");
  Packet& p = arena_[rr.packet];
  AQT_CHECK(p.hop < p.route.size(), "reroute of finished packet");
  // Splice in place: traversed prefix (current edge included) + new suffix,
  // assembled in reusable scratch and interned copy-on-write — packets
  // sharing the old route are untouched, and no per-reroute Route is
  // allocated in steady state.
  splice_scratch_.assign(p.route.begin(),
                         p.route.begin() + static_cast<std::ptrdiff_t>(p.hop) +
                             1);
  splice_scratch_.insert(splice_scratch_.end(), rr.new_suffix.begin(),
                         rr.new_suffix.end());
  const std::optional<RouteRef> ref = intern_route(splice_scratch_);
  AQT_REQUIRE(ref.has_value(), "rerouted route is not a simple path (packet "
                                   << rr.packet << ")");
  // The packet's buffer position is untouched: historic protocols' keys do
  // not depend on the route beyond the next edge, so no re-keying is needed.
  p.route = *ref;
}

void Engine::apply_injection(const Injection& inj, Time t) {
  const std::optional<RouteRef> ref = intern_route(inj.route);
  AQT_REQUIRE(ref.has_value(), "injected route is not a simple path");
  apply_injection_ref(*ref, inj.tag, t);
}

std::optional<RouteRef> Engine::intern_route(const Route& route) {
  if (!config_.validate_routes) return routes_.intern(route);
  if (const RouteRef known = routes_.find(route); !known.empty())
    return known;
  if (!graph_.is_simple_path(route)) return std::nullopt;
  return routes_.intern(route);
}

void Engine::apply_injection_ref(RouteRef route, std::uint64_t tag, Time t) {
  const PacketId id = arena_.create(route, t, tag);
  enqueue(id, t);
  if (config_.sinks.trace != nullptr || config_.sinks.events != nullptr) {
    const std::uint64_t ordinal = arena_.meta(id).ordinal;
    if (config_.sinks.trace)
      config_.sinks.trace->record_inject(ordinal, tag, route);
    if (config_.sinks.events)
      config_.sinks.events->on_inject(t, ordinal, tag, route,
                                      /*initial=*/false);
  }
}

template <typename InjectBody>
void Engine::step_body(bool has_inject, InjectBody&& inject_body) {
  AQT_REQUIRE(!audit_finalized_, "stepping after finalize_audit()");
  stepping_started_ = true;
  if (invariants_) invariants_->begin_step();
  const Time t = ++now_;
  // A sampling profiler opts out of per-phase brackets on most steps
  // (begin_step returns false); the mask keeps its call counts exact.
  StepPhaseSink* const prof = config_.sinks.profile;
  StepPhaseSink* const brackets =
      prof != nullptr && prof->begin_step(t) ? prof : nullptr;
  std::uint8_t phase_mask = 0;
  if (config_.sinks.trace) config_.sinks.trace->begin_step(t);

  // Substep 1: every nonempty buffer sends its highest-priority packet,
  // in ascending edge-id order (bitmap word scan).
  {
    PhaseScope phase(brackets, StepPhase::kTransmit);
    phase_mask |= 1u << static_cast<unsigned>(StepPhase::kTransmit);
    sent_.clear();
    const bool emit_send =
        config_.sinks.trace != nullptr || config_.sinks.events != nullptr;
    for (std::size_t wi = 0; wi < active_words_.size(); ++wi) {
      std::uint64_t w = active_words_[wi];
      while (w != 0) {
        const int b = std::countr_zero(w);
        w &= w - 1;
        const EdgeId e = static_cast<EdgeId>((wi << 6) +
                                             static_cast<std::size_t>(b));
        Buffer& buf = buffers_[e];
        const BufferEntry entry = buf.pop_min();
        sent_.push_back(entry.packet);
        if (emit_send) [[unlikely]] {
          const Packet& p = arena_[entry.packet];
          const std::uint64_t ordinal = arena_.meta(entry.packet).ordinal;
          if (config_.sinks.trace)
            config_.sinks.trace->record_send(e, ordinal);
          if (config_.sinks.events)
            config_.sinks.events->on_send(t, e, ordinal, p.hop,
                                          t - p.arrival_time);
        }
        if (buf.empty()) clear_active_bit(e);
      }
    }
  }

  // Substep 2a: deliveries, in sending-edge order (sent_ is already ordered
  // by edge id because the bitmap scan runs in increasing order).
  {
    PhaseScope phase(brackets, StepPhase::kAbsorb);
    phase_mask |= 1u << static_cast<unsigned>(StepPhase::kAbsorb);
    for (const PacketId id : sent_) {
      Packet& p = arena_[id];
      // The send that moved this packet is accounted here rather than in
      // the transmit loop: sent_ preserves ascending edge order, the
      // observed values are identical, and p's cache line is needed for
      // the hop advance anyway — the transmit loop stays pure buffer and
      // bitmap work.
      metrics_.observe_send(p.route[p.hop], t - p.arrival_time);
      ++p.hop;
      if (p.hop == p.route.size()) {
        absorb(id, t);
      } else {
        enqueue(id, t);
      }
    }
  }

  // Substep 2b: reroutes (applied first) and injections — polled from the
  // adversary or replayed from the compiled schedule.
  if (has_inject) {
    PhaseScope phase(brackets, StepPhase::kInject);
    phase_mask |= 1u << static_cast<unsigned>(StepPhase::kInject);
    inject_body(t);
  }

  // End-of-step metrics.
  {
    PhaseScope phase(brackets, StepPhase::kRecord);
    phase_mask |= 1u << static_cast<unsigned>(StepPhase::kRecord);
    for_each_active(
        [&](EdgeId e) { metrics_.observe_queue(e, buffers_[e].size()); });
    metrics_.observe_step(arena_.live_count());
    if (config_.sinks.trace)
      for_each_active([&](EdgeId e) {
        config_.sinks.trace->record_queue_depth(e, buffers_[e].size());
      });
    if (config_.series_stride > 0 && t % config_.series_stride == 0)
      metrics_.push_series(t, arena_.live_count(), max_queue_now());
    if (config_.sinks.samples != nullptr) [[unlikely]] {
      StepSample sample;
      sample.t = t;
      sample.in_flight = arena_.live_count();
      sample.injected_total = arena_.total_created();
      sample.absorbed_total = absorbed_;
      sample.active_edges = active_count_;
      sample.max_queue = max_queue_now();
      config_.sinks.samples->on_step(sample, *this);
    }
  }

  if (invariants_) {
    PhaseScope phase(brackets, StepPhase::kAudit);
    phase_mask |= 1u << static_cast<unsigned>(StepPhase::kAudit);
    invariants_->end_step(sent_);
  }
  if (prof)
    prof->end_step(brackets == nullptr ? phase_mask
                                       : static_cast<std::uint8_t>(0));
}

void Engine::step(Adversary* adversary) {
  step_body(adversary != nullptr, [&](Time t) {
    adv_step_.injections.clear();
    adv_step_.reroutes.clear();
    adversary->step(t, *this, adv_step_);
    for (const Reroute& rr : adv_step_.reroutes) {
      apply_reroute(rr);
      if (config_.sinks.trace)
        config_.sinks.trace->record_reroute(arena_.meta(rr.packet).ordinal,
                                            rr.new_suffix);
    }
    for (const Injection& inj : adv_step_.injections)
      apply_injection(inj, t);
  });
}

void Engine::step_compiled(const CompiledSchedule::StepView& view) {
  step_body(true, [&](Time t) {
    for (const Reroute& rr : view.reroutes) {
      apply_reroute(rr);
      if (config_.sinks.trace)
        config_.sinks.trace->record_reroute(arena_.meta(rr.packet).ordinal,
                                            rr.new_suffix);
    }
    for (const CompiledInjection& ci : view.injections)
      apply_injection_ref(ci.route, ci.tag, t);
  });
}

void Engine::compile_block(Adversary& adv, Time first, Time count) {
  schedule_.reset(first);
  for (Time t = first; t < first + count; ++t) {
    // finished() is polled *before* step(), exactly as the per-step loop
    // would; the answer is snapshotted because compiling the rest of the
    // block advances the adversary's internal clock past t.
    schedule_.begin_step(adv.finished(t));
    adv_step_.injections.clear();
    adv_step_.reroutes.clear();
    adv.step(t, *this, adv_step_);
    for (Reroute& rr : adv_step_.reroutes)
      schedule_.add_reroute(std::move(rr));
    for (const Injection& inj : adv_step_.injections) {
      const std::optional<RouteRef> ref = intern_route(inj.route);
      AQT_REQUIRE(ref.has_value(), "injected route is not a simple path");
      schedule_.add_injection(*ref, inj.tag);
    }
  }
}

Time Engine::run(Adversary* adversary, Time count, bool stop_when_finished) {
  if (adversary == nullptr || !config_.compile_schedules ||
      !adversary->is_oblivious()) {
    Time taken = 0;
    for (; taken < count; ++taken) {
      if (stop_when_finished && adversary != nullptr &&
          adversary->finished(now_ + 1))
        break;
      step(adversary);
    }
    return taken;
  }
  // Compiled fast path: lower the adversary blockwise, then execute each
  // block without virtual calls or allocation inside the steps.
  Time taken = 0;
  while (taken < count) {
    const Time block =
        std::min<Time>(CompiledSchedule::kBlockSteps, count - taken);
    compile_block(*adversary, now_ + 1, block);
    for (Time i = 0; i < block; ++i) {
      const CompiledSchedule::StepView view = schedule_.step(now_ + 1);
      if (stop_when_finished && view.finished_before) return taken;
      step_compiled(view);
      ++taken;
    }
  }
  return taken;
}

Time Engine::drain(Time cap) {
  Time taken = 0;
  while (taken < cap && active_count_ > 0) {
    step(nullptr);
    ++taken;
  }
  return taken;
}

const RateAudit& Engine::audit() const {
  AQT_REQUIRE(audit_.has_value(),
              "rate auditing disabled; set EngineConfig::audit_rates");
  return *audit_;
}

void Engine::finalize_audit() {
  AQT_REQUIRE(audit_.has_value(),
              "rate auditing disabled; set EngineConfig::audit_rates");
  AQT_REQUIRE(!audit_finalized_, "finalize_audit() called twice");
  audit_finalized_ = true;
  arena_.for_each_live([&](PacketId, const Packet& p, const PacketMeta&) {
    if (p.inject_time > 0) audit_->add(p.route, p.inject_time);
  });
}

}  // namespace aqt
