#include "aqt/obs/tracing.hpp"

#include <cstdio>
#include <sstream>

#include "aqt/obs/export.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/json.hpp"

namespace aqt::obs {

TraceEventLog::TraceEventLog() : epoch_ticks_(clock_.ticks()) {}

std::uint64_t TraceEventLog::now_nanos() const {
  const std::uint64_t t = clock_.ticks();
  return t > epoch_ticks_ ? clock_.to_nanos(t - epoch_ticks_) : 0;
}

void TraceEventLog::complete(std::string name, const char* category,
                             std::uint64_t ts_nanos,
                             std::uint64_t dur_nanos, std::uint32_t tid) {
  events_.push_back(TraceEvent{std::move(name), category, 'X', ts_nanos,
                               dur_nanos, tid});
}

void TraceEventLog::instant(std::string name, const char* category,
                            std::uint64_t ts_nanos, std::uint32_t tid) {
  events_.push_back(
      TraceEvent{std::move(name), category, 'i', ts_nanos, 0, tid});
}

void TraceEventLog::name_thread(std::uint32_t tid, const std::string& name) {
  thread_names_.emplace_back(tid, name);
}

void TraceEventLog::merge_from(const TraceEventLog& other) {
  // Both epochs are readings of the same monotonic tick source, so the
  // difference maps other-relative timestamps into this timebase exactly;
  // an other-log older than this one clamps at 0 rather than underflowing.
  const bool other_later = other.epoch_ticks_ >= epoch_ticks_;
  const std::uint64_t shift =
      clock_.to_nanos(other_later ? other.epoch_ticks_ - epoch_ticks_
                                  : epoch_ticks_ - other.epoch_ticks_);
  for (TraceEvent ev : other.events_) {
    if (other_later)
      ev.ts_nanos += shift;
    else
      ev.ts_nanos = ev.ts_nanos > shift ? ev.ts_nanos - shift : 0;
    events_.push_back(std::move(ev));
  }
  for (const auto& [tid, name] : other.thread_names_)
    name_thread(tid, name);
}

namespace {

/// Nanoseconds as decimal microseconds ("12.345").
void append_micros(std::ostringstream& os, std::uint64_t nanos) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(nanos / 1000),
                static_cast<unsigned long long>(nanos % 1000));
  os << buf;
}

}  // namespace

std::string TraceEventLog::to_json(const std::string& process_name) const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  sep();
  os << R"({"name":"process_name","ph":"M","pid":1,"tid":0,)"
     << R"("args":{"name":")" << json_escape_string(process_name) << "\"}}";
  for (const auto& [tid, name] : thread_names_) {
    sep();
    os << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << tid
       << R"(,"args":{"name":")" << json_escape_string(name) << "\"}}";
  }

  for (const TraceEvent& ev : events_) {
    sep();
    os << "{\"name\":\"" << json_escape_string(ev.name)
       << "\",\"cat\":\"" << ev.category << "\",\"ph\":\"" << ev.ph
       << "\",\"pid\":1,\"tid\":" << ev.tid << ",\"ts\":";
    append_micros(os, ev.ts_nanos);
    if (ev.ph == 'X') {
      os << ",\"dur\":";
      append_micros(os, ev.dur_nanos);
    }
    if (ev.ph == 'i') os << ",\"s\":\"t\"";
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

void TraceEventLog::write(const std::string& path,
                          const std::string& process_name) const {
  write_file(path, to_json(process_name));
}

PhaseTraceRecorder::PhaseTraceRecorder(TraceEventLog& log, Config config)
    : log_(log), config_(config) {
  AQT_REQUIRE(config_.stride >= 1, "trace recorder stride must be >= 1");
  AQT_REQUIRE(config_.max_steps >= 1,
              "trace recorder max_steps must be >= 1");
}

bool PhaseTraceRecorder::begin_step(Time t) {
  recording_ = steps_ % config_.stride == 0 && recorded_ < config_.max_steps;
  ++steps_;
  if (!recording_) return false;
  current_step_ = t;
  step_start_ = log_.now_nanos();
  return true;
}

void PhaseTraceRecorder::begin_phase(StepPhase) {
  phase_start_ = log_.now_nanos();
}

void PhaseTraceRecorder::end_phase(StepPhase phase) {
  const std::uint64_t now = log_.now_nanos();
  log_.complete(to_string(phase), "aqt.phase", phase_start_,
                now > phase_start_ ? now - phase_start_ : 0, config_.tid);
}

void PhaseTraceRecorder::end_step(std::uint8_t) {
  if (!recording_) return;
  const std::uint64_t now = log_.now_nanos();
  log_.complete("step " + std::to_string(current_step_), "aqt.step",
                step_start_, now > step_start_ ? now - step_start_ : 0,
                config_.tid);
  ++recorded_;
  recording_ = false;
}

}  // namespace aqt::obs
