#include "aqt/obs/events.hpp"

#include <istream>
#include <ostream>

#include "aqt/util/check.hpp"
#include "aqt/util/json.hpp"

namespace aqt::obs {
namespace {

/// One event line: a flat JSON object whose values are strings, integers,
/// booleans, or arrays of strings, with the keys of the event grammar.  A
/// value of the wrong type fails in its JsonValue accessor.
ObsEvent parse_line(const std::string& line, const std::string& where) {
  const auto fail = [&where](const std::string& what) {
    AQT_REQUIRE(false, "" << where << ": " << what);
  };
  const auto u64 = [&fail](const JsonValue& v, const std::string& key) {
    if (v.as_int() < 0) fail("negative value for " + key);
    return static_cast<std::uint64_t>(v.as_int());
  };
  const JsonValue doc = parse_json(line, where);
  if (!doc.is_object()) fail("event line is not a JSON object");
  const JsonValue* kind = doc.find("ev");
  AQT_REQUIRE(kind != nullptr, "" << where << ": missing \"ev\" key");
  ObsEvent ev;
  for (const auto& [key, v] : doc.members()) {
    if (key == "ev") {
      // Dispatched on below, once every field is read.
    } else if (key == "t") {
      ev.t = v.as_int();
    } else if (key == "packet") {
      ev.packet = u64(v, key);
    } else if (key == "tag") {
      ev.tag = u64(v, key);
    } else if (key == "initial") {
      ev.initial = v.as_bool();
    } else if (key == "route") {
      for (const JsonValue& name : v.items())
        ev.route.push_back(name.as_string());
    } else if (key == "edge") {
      ev.edge = v.as_string();
    } else if (key == "hop") {
      ev.hop = u64(v, key);
    } else if (key == "residence") {
      ev.residence = v.as_int();
    } else if (key == "latency") {
      ev.latency = v.as_int();
    } else if (key == "name") {
      ev.name = v.as_string();
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  const std::string& k = kind->as_string();
  if (k == "inject") {
    ev.kind = ObsEvent::Kind::kInject;
    if (ev.route.empty()) fail("inject without route");
  } else if (k == "send") {
    ev.kind = ObsEvent::Kind::kSend;
    if (ev.edge.empty()) fail("send without edge");
  } else if (k == "absorb") {
    ev.kind = ObsEvent::Kind::kAbsorb;
  } else if (k == "milestone") {
    ev.kind = ObsEvent::Kind::kMilestone;
    if (ev.name.empty()) fail("milestone without name");
  } else {
    fail("unknown event kind '" + k + "'");
  }
  return ev;
}

}  // namespace

JsonlEventWriter::JsonlEventWriter(std::ostream& os, const Graph& graph)
    : os_(os), graph_(graph) {}

void JsonlEventWriter::on_inject(Time t, std::uint64_t ordinal,
                                 std::uint64_t tag, RouteSpan route,
                                 bool initial) {
  os_ << "{\"ev\":\"inject\",\"t\":" << t << ",\"packet\":" << ordinal
      << ",\"tag\":" << tag << ",\"initial\":" << (initial ? "true" : "false")
      << ",\"route\":[";
  for (std::size_t i = 0; i < route.size(); ++i) {
    if (i > 0) os_ << ',';
    os_ << '"' << json_escape_string(graph_.edge(route[i]).name) << '"';
  }
  os_ << "]}\n";
  ++lines_;
}

void JsonlEventWriter::on_send(Time t, EdgeId e, std::uint64_t ordinal,
                               std::size_t hop, Time residence) {
  os_ << "{\"ev\":\"send\",\"t\":" << t << ",\"packet\":" << ordinal
      << ",\"edge\":\"" << json_escape_string(graph_.edge(e).name)
      << "\",\"hop\":" << hop << ",\"residence\":" << residence << "}\n";
  ++lines_;
}

void JsonlEventWriter::on_absorb(Time t, std::uint64_t ordinal, Time latency) {
  os_ << "{\"ev\":\"absorb\",\"t\":" << t << ",\"packet\":" << ordinal
      << ",\"latency\":" << latency << "}\n";
  ++lines_;
}

void JsonlEventWriter::milestone(Time t, const std::string& name) {
  os_ << "{\"ev\":\"milestone\",\"t\":" << t << ",\"name\":\""
      << json_escape_string(name) << "\"}\n";
  ++lines_;
}

std::vector<ObsEvent> parse_jsonl_events(std::istream& is,
                                         const std::string& name) {
  std::vector<ObsEvent> events;
  std::string line;
  std::uint64_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    events.push_back(
        parse_line(line, name + ":" + std::to_string(lineno)));
  }
  return events;
}

}  // namespace aqt::obs
