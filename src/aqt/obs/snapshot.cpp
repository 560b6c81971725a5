#include "aqt/obs/snapshot.hpp"

#include "aqt/core/engine.hpp"
#include "aqt/core/graph.hpp"
#include "aqt/core/metrics.hpp"
#include "aqt/obs/profiler.hpp"
#include "aqt/obs/registry.hpp"

namespace aqt::obs {

void collect_engine_metrics(const Engine& engine, MetricRegistry& registry) {
  const Metrics& m = engine.metrics();
  const Graph& g = engine.graph();
  const std::uint64_t steps = m.steps_observed();

  registry.counter("aqt_steps_total", "Engine steps executed").set(steps);
  registry
      .counter("aqt_injected_total",
               "Packets created (initial configuration plus injections)")
      .set(engine.total_injected());
  registry.counter("aqt_absorbed_total", "Packets absorbed at their route end")
      .set(engine.total_absorbed());
  registry.counter("aqt_sends_total", "Packet-over-edge transmissions")
      .set(m.sends());

  registry.gauge("aqt_in_flight", "Live packets sitting in buffers")
      .set(static_cast<double>(engine.packets_in_flight()));
  registry
      .gauge("aqt_max_queue_packets",
             "Largest single buffer ever observed (stability bound Q_i)")
      .set(static_cast<double>(m.max_queue_global()));
  registry
      .gauge("aqt_max_residence_steps",
             "Longest single-buffer residence (compare ceil(w*r))")
      .set(static_cast<double>(m.max_residence_global()));
  registry.gauge("aqt_max_latency_steps", "Largest end-to-end latency")
      .set(static_cast<double>(m.max_latency()));
  registry.gauge("aqt_mean_latency_steps", "Mean end-to-end latency")
      .set(m.mean_latency());

  const double steps_d = static_cast<double>(steps);
  registry
      .gauge("aqt_injection_rate_per_step",
             "Packets injected per executed step (0 before any step)")
      .set(steps == 0 ? 0.0
                      : static_cast<double>(engine.total_injected()) / steps_d);
  registry
      .gauge("aqt_absorption_rate_per_step",
             "Packets absorbed per executed step (0 before any step)")
      .set(steps == 0 ? 0.0
                      : static_cast<double>(engine.total_absorbed()) / steps_d);
  registry
      .gauge("aqt_mean_occupancy_packets",
             "Mean per-step system occupancy (live packets)")
      .set(m.mean_occupancy());
  registry
      .gauge("aqt_peak_occupancy_packets",
             "Largest per-step system occupancy")
      .set(static_cast<double>(m.peak_occupancy()));

  registry
      .gauge("aqt_route_pool_bytes",
             "Bytes of interned route storage (deduplicated edge pool)")
      .set(static_cast<double>(engine.route_table().pool_bytes()));
  registry
      .gauge("aqt_buffer_bytes",
             "Bytes of buffer entry storage held, summed over edges")
      .set(static_cast<double>(engine.buffer_bytes()));
  registry
      .counter("aqt_arena_recycled_total",
               "Packet arena slots reused from the free list")
      .set(engine.arena().recycled_total());

  registry
      .histogram("aqt_latency_steps", "End-to-end latency distribution")
      .merge(m.latency_histogram());
  registry
      .histogram("aqt_queue_depth_packets",
                 "End-of-step nonempty-buffer depth distribution")
      .merge(m.queue_depth_histogram());
  registry
      .histogram("aqt_residence_steps",
                 "Single-buffer residence distribution over all sends")
      .merge(m.residence_histogram());

  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const std::string& name = g.edge(e).name;
    if (m.max_queue(e) != 0) {
      registry
          .gauge("aqt_edge_max_queue_packets",
                 "Largest buffer observed on this edge", "edge", name)
          .set(static_cast<double>(m.max_queue(e)));
    }
    if (m.max_residence(e) != 0) {
      registry
          .gauge("aqt_edge_max_residence_steps",
                 "Longest residence in this edge's buffer", "edge", name)
          .set(static_cast<double>(m.max_residence(e)));
    }
    if (m.sends(e) != 0) {
      registry
          .counter("aqt_edge_sends_total", "Packets that crossed this edge",
                   "edge", name)
          .set(m.sends(e));
    }
  }
}

void collect_profile_metrics(const StepProfiler& profiler,
                             MetricRegistry& registry) {
  const StepProfiler::Report rep = profiler.report();

  registry.counter("aqt_profile_steps_total", "Steps timed by the profiler")
      .set(rep.steps);
  registry
      .gauge("aqt_profile_wall_seconds",
             "Total in-step wall time (stride-sampled estimate)")
      .set(rep.wall_seconds());
  registry
      .gauge("aqt_profile_steps_per_second",
             "Steps per second of measured step time")
      .set(rep.steps_per_second());

  for (std::size_t i = 0; i < kStepPhaseCount; ++i) {
    const char* phase = to_string(static_cast<StepPhase>(i));
    registry
        .gauge("aqt_profile_phase_seconds",
               "Wall-clock time spent in this engine substep", "phase", phase)
        .set(rep.phases[i].seconds());
    registry
        .counter("aqt_profile_phase_calls",
                 "Times this engine substep ran", "phase", phase)
        .set(rep.phases[i].calls);
  }

  registry
      .histogram("aqt_profile_step_nanos",
                 "Whole-step wall-time distribution over sampled steps (nanoseconds)")
      .merge(profiler.step_nanos_histogram());
}

}  // namespace aqt::obs
