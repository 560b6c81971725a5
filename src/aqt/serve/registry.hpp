// The name -> recipe registry and the RunRequest -> RunSpec compiler.
//
// This is the seam between the declarative wire API (request.hpp: names
// and parameters) and the closure-based executor API (runner/run_spec.hpp:
// recipes and factories).  The registry owns three name tables:
//
//   topologies  — every spec the topology grammar accepts ("ring:8",
//                 "grid:4x4", ..., see topology/spec.hpp), plus named
//                 recipes registered in-process (register_topology), so
//                 deployments can expose e.g. "prod-backbone" without
//                 clients knowing how it is built;
//   protocols   — exactly make_protocol's names (core/protocol.cpp);
//   adversaries — the parameterized kinds of request.hpp.
//
// compile() is a *pure function* of (request, registry contents): it
// resolves names, validates cross-field consistency (an "lps" adversary
// needs an lps:NxM topology; a convoy needs a forward path), and emits a
// RunSpec whose closures capture only values.  Purity is what makes the
// serve/offline byte-identity contract hold — aqt-serve and `aqt-sim
// --batch` both call this one compiler, then execute_run does the rest.
//
// Name-resolution failures throw RequestError with the stable codes
// SRV006 (topology), SRV007 (protocol), SRV008 (adversary kind), SRV009
// (parameters inconsistent with the resolved names).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "aqt/core/graph.hpp"
#include "aqt/runner/run_spec.hpp"
#include "aqt/serve/request.hpp"
#include "aqt/util/json.hpp"

namespace aqt {
namespace serve {

/// A named topology recipe: seed-parameterized so randomized families
/// (e.g. dag:N) stay reproducible per cell.
struct NamedTopology {
  std::string name;
  std::string description;
  std::function<Graph(std::uint64_t seed)> build;
};

class Registry {
 public:
  /// The built-in tables: the full topology grammar, make_protocol's
  /// names, and the adversary kinds of request.hpp.
  Registry();

  /// Registers (or replaces) a named topology recipe.  Names must not
  /// collide with the grammar (anything containing ':' is reserved for
  /// grammar specs).  See docs/EXTENDING.md.
  void register_topology(NamedTopology entry);

  [[nodiscard]] bool has_topology(const std::string& name) const;
  [[nodiscard]] const std::vector<NamedTopology>& named_topologies() const {
    return named_;
  }

  /// Machine-readable catalog of everything compile() accepts — served to
  /// clients so they can enumerate the API surface instead of guessing.
  [[nodiscard]] JsonValue catalog() const;

  /// RunRequest -> RunSpec.  Pure; throws RequestError (SRV006..SRV009).
  [[nodiscard]] RunSpec compile(const RunRequest& req) const;

 private:
  std::vector<NamedTopology> named_;
};

}  // namespace serve
}  // namespace aqt
