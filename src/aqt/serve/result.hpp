// Canonical result serialization — the single writer of run outcomes.
//
// The end-to-end determinism contract says a job served by aqt-serve must
// be byte-identical to the same job run offline by aqt-sim.  The cheapest
// way to make that true (and keep it true) is to have exactly ONE place
// that turns a RunResult into bytes; aqt-serve's result events and
// `aqt-sim --batch --results-dir` both call canonical_result_json and
// diff cleanly.
//
// Field order is fixed; the trace hash is the 16-hex-digit form used by
// run-trace footers; `metrics` (present only when the artifact was
// requested) embeds the obs Prometheus-JSON export as a string, verbatim,
// because obs::to_json is already registration-order deterministic.
#pragma once

#include <string>

#include "aqt/runner/run_spec.hpp"
#include "aqt/util/json.hpp"

namespace aqt {
namespace serve {

inline constexpr int kRunResultVersion = 1;

JsonValue run_result_to_json(const RunResult& result);

/// One line, no trailing newline; byte-stable across processes.
std::string canonical_result_json(const RunResult& result);

}  // namespace serve
}  // namespace aqt
