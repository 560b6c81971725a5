#include "aqt/serve/result.hpp"

#include "aqt/core/stability.hpp"
#include "aqt/obs/export.hpp"
#include "aqt/util/hash.hpp"

namespace aqt {
namespace serve {

JsonValue run_result_to_json(const RunResult& result) {
  JsonValue doc = JsonValue::make_object();
  doc.set("aqt_run_result", JsonValue::make_int(kRunResultVersion));
  doc.set("name", JsonValue::make_string(result.name));
  doc.set("protocol", JsonValue::make_string(result.protocol));
  doc.set("topology", JsonValue::make_string(result.topology));
  doc.set("seed",
          JsonValue::make_int(static_cast<std::int64_t>(result.seed)));
  doc.set("ok", JsonValue::make_bool(result.ok()));
  if (!result.ok())
    doc.set("error", JsonValue::make_string(result.error));
  doc.set("steps_run", JsonValue::make_int(result.steps_run));
  doc.set("injected",
          JsonValue::make_int(static_cast<std::int64_t>(result.injected)));
  doc.set("absorbed",
          JsonValue::make_int(static_cast<std::int64_t>(result.absorbed)));
  doc.set("in_flight",
          JsonValue::make_int(static_cast<std::int64_t>(result.in_flight)));
  doc.set("max_queue",
          JsonValue::make_int(static_cast<std::int64_t>(result.max_queue)));
  doc.set("max_residence", JsonValue::make_int(result.max_residence));
  doc.set("max_latency", JsonValue::make_int(result.max_latency));
  doc.set("verdict", JsonValue::make_string(to_string(result.verdict)));
  doc.set("growth_ratio", JsonValue::make_double(result.growth_ratio));
  doc.set("feasible", JsonValue::make_bool(result.feasible));
  doc.set("trace_hash", JsonValue::make_string(
                            result.trace_hash != 0 ? hash_hex(result.trace_hash)
                                                   : std::string("-")));
  if (result.checkpointed) {
    doc.set("checkpointed", JsonValue::make_bool(true));
    doc.set("checkpoint_step", JsonValue::make_int(result.checkpoint_step));
  }
  if (!result.extra.empty()) {
    JsonValue extra = JsonValue::make_object();
    for (const auto& [key, value] : result.extra)
      extra.set(key, JsonValue::make_double(value));
    doc.set("extra", std::move(extra));
  }
  // obs::to_json is registration-order deterministic, so embedding the
  // export verbatim (as a string) keeps this document byte-stable without
  // re-modelling the metrics schema here.
  if (!result.metrics.families().empty())
    doc.set("metrics", JsonValue::make_string(
                           obs::to_json(result.metrics, "aqt-run")));
  return doc;
}

std::string canonical_result_json(const RunResult& result) {
  return write_json(run_result_to_json(result));
}

}  // namespace serve
}  // namespace aqt
