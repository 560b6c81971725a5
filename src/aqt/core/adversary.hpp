// Adversary interface (paper §2, Definition 2.1 and the rate-r adversary).
//
// The adversary is invoked once per time step, during the second substep,
// *after* in-transit packets have been delivered.  It may read the whole
// simulation state (the paper's adversaries are adaptive in presentation —
// ours re-parameterize phases from measured queue sizes) and returns two
// kinds of work:
//   * injections — new packets with full routes (placed in the buffer of the
//     first route edge this same step), and
//   * reroutes  — suffix replacements for in-flight packets, the Lemma 3.3
//     technique.  The engine validates contiguity and (for safety) that the
//     active protocol is historic.
//
// Whether the adversary respects its rate constraint is *checked*, not
// assumed: see rate_check.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "aqt/core/types.hpp"

namespace aqt {

class Engine;

/// A packet to inject this step.
struct Injection {
  Route route;
  std::uint64_t tag = 0;
};

/// Replace everything after packet's current (next) edge with `new_suffix`.
/// An empty suffix truncates the route at the current edge.
struct Reroute {
  PacketId packet;
  Route new_suffix;
};

/// Per-step work emitted by an adversary.
struct AdversaryStep {
  std::vector<Injection> injections;
  std::vector<Reroute> reroutes;
};

/// Base class for all adversaries.
class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Produce this step's work.  `now` is the current step (first call: 1).
  /// `engine` exposes read-only state.
  virtual void step(Time now, const Engine& engine, AdversaryStep& out) = 0;

  /// True once the adversary has finished its script (used by drivers to
  /// stop runs early).  Unbounded adversaries never finish.
  [[nodiscard]] virtual bool finished(Time /*now*/) const { return false; }

  /// True when step() never reads the engine argument — the adversary's
  /// output is a pure function of `now` and its own internal state.  Such
  /// adversaries can be *precompiled*: Engine::run polls them for a whole
  /// block of future steps up front, lowering their work into a flat
  /// CompiledSchedule, and then executes the block without a single virtual
  /// call or AdversaryStep allocation on the hot path.  Adaptive
  /// adversaries (anything that inspects queues or resolves packet ids)
  /// must keep the default and stay on the per-step polled path.
  [[nodiscard]] virtual bool is_oblivious() const { return false; }

  /// True when step() for steps 1..t never reads the engine, so a resumed
  /// run can fast-forward through them by replaying its polls.  An
  /// oblivious adversary is for every t; a script is until its first
  /// reroute.
  [[nodiscard]] virtual bool is_oblivious_through(Time /*t*/) const {
    return is_oblivious();
  }
};

/// The trivial adversary: injects nothing, ever.
class NullAdversary final : public Adversary {
 public:
  void step(Time, const Engine&, AdversaryStep&) override {}
  [[nodiscard]] bool finished(Time) const override { return true; }
  [[nodiscard]] bool is_oblivious() const override { return true; }
};

}  // namespace aqt
