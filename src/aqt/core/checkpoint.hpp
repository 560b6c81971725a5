// Simulation checkpointing: persist a running engine's complete state and
// resume it later in a fresh process.
//
// A checkpoint captures the clock, all live packets (with their effective
// routes, positions, and scheduling keys), buffer contents, and the
// aggregate metrics — everything observable.  It does NOT capture:
//   * the adversary (adversaries are code; re-construct and fast-forward,
//     or use a Trace for data-driven schedules);
//   * the rate audit (disable auditing for checkpointed runs).
//
// Restored runs are behaviourally identical to the original continuing:
// packet ids may differ (slot assignment is an implementation detail), but
// ordinals, arrival sequence numbers, and buffer orderings are preserved
// exactly, and those are the only identities the engine's semantics use.
//
// Format: a versioned line-oriented text format; edges are referenced by
// id (the checkpoint is tied to an identically-built graph, which is
// verified via an edge-count and name checksum).
#pragma once

#include <iosfwd>

namespace aqt {

class Engine;

/// Writes `engine`'s full state.  Requires rate auditing to be disabled.
void save_checkpoint(const Engine& engine, std::ostream& os);

/// Restores state into a freshly constructed engine (same graph, same
/// protocol, no packets, never stepped).  Throws PreconditionError on
/// format errors or graph mismatch.
void load_checkpoint(Engine& engine, std::istream& is);

}  // namespace aqt
