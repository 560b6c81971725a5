#include "aqt/runner/job_checkpoint.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

#include "aqt/util/check.hpp"
#include "aqt/util/hash.hpp"

namespace aqt {
namespace {

template <typename Int>
Int parse_num(const std::string& tok, const std::string& where,
              const char* what, int base = 10) {
  Int value{};
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), value, base);
  AQT_REQUIRE(ec == std::errc() && ptr == tok.data() + tok.size(),
              "" << where << ": '" << tok << "' is not a valid " << what);
  return value;
}

/// Reads one line and splits "<key> <rest...>"; requires the exact key.
std::string keyed_line(std::istream& is, const std::string& where,
                       const char* key) {
  std::string raw;
  AQT_REQUIRE(std::getline(is, raw),
              "" << where << ": truncated job checkpoint (expected '" << key
                   << "' line)");
  const std::size_t sp = raw.find(' ');
  const std::string k = sp == std::string::npos ? raw : raw.substr(0, sp);
  AQT_REQUIRE(k == key, "" << where << ": expected '" << key
                             << "' line, got '" << k << "'");
  return sp == std::string::npos ? std::string() : raw.substr(sp + 1);
}

}  // namespace

void save_job_checkpoint(const JobCheckpoint& cp, std::ostream& os) {
  os << "aqt-job-checkpoint " << kJobCheckpointVersion << '\n';
  os << "name " << (cp.name.empty() ? "-" : cp.name) << '\n';
  os << "protocol " << cp.protocol << '\n';
  os << "topology " << (cp.topology.empty() ? "-" : cp.topology) << '\n';
  os << "seed " << cp.seed << '\n';
  os << "steps-done " << cp.steps_done << '\n';
  os << "trace " << (cp.has_trace ? 1 : 0) << ' '
     << hash_hex(cp.trace.hash_state) << ' ' << cp.trace.last_step << '\n';
  os << "engine\n";
  os << cp.engine_state;
  os.flush();
}

void save_job_checkpoint_file(const JobCheckpoint& cp,
                              const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  AQT_REQUIRE(os.good(), "cannot open job checkpoint '" << path
                                                        << "' for writing");
  save_job_checkpoint(cp, os);
  AQT_REQUIRE(os.good(), "write to job checkpoint '" << path << "' failed");
}

JobCheckpoint load_job_checkpoint(std::istream& is,
                                  const std::string& where) {
  JobCheckpoint cp;
  {
    const std::string v = keyed_line(is, where, "aqt-job-checkpoint");
    const int version = parse_num<int>(v, where, "version");
    AQT_REQUIRE(version == kJobCheckpointVersion,
                "" << where << ": unsupported job-checkpoint version "
                     << version << " (this build reads version "
                     << kJobCheckpointVersion << ")");
  }
  cp.name = keyed_line(is, where, "name");
  if (cp.name == "-") cp.name.clear();
  cp.protocol = keyed_line(is, where, "protocol");
  AQT_REQUIRE(!cp.protocol.empty(), "" << where << ": empty protocol");
  cp.topology = keyed_line(is, where, "topology");
  if (cp.topology == "-") cp.topology.clear();
  cp.seed = parse_num<std::uint64_t>(keyed_line(is, where, "seed"), where,
                                     "seed");
  cp.steps_done = parse_num<Time>(keyed_line(is, where, "steps-done"), where,
                                  "step count");
  {
    const std::string t = keyed_line(is, where, "trace");
    std::istringstream ts(t);
    std::string flag;
    std::string hex;
    std::string last;
    AQT_REQUIRE(ts >> flag >> hex >> last,
                "" << where << ": expected 'trace <0|1> <hex> <step>'");
    AQT_REQUIRE(flag == "0" || flag == "1",
                "" << where << ": trace flag must be 0 or 1");
    cp.has_trace = flag == "1";
    cp.trace.hash_state =
        parse_num<std::uint64_t>(hex, where, "trace hash state", 16);
    cp.trace.last_step = parse_num<Time>(last, where, "trace step");
  }
  {
    const std::string rest = keyed_line(is, where, "engine");
    AQT_REQUIRE(rest.empty(),
                "" << where << ": 'engine' line takes no operand");
  }
  std::ostringstream engine;
  engine << is.rdbuf();
  cp.engine_state = engine.str();
  AQT_REQUIRE(!cp.engine_state.empty(),
              "" << where << ": missing embedded engine checkpoint");
  return cp;
}

JobCheckpoint load_job_checkpoint_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  AQT_REQUIRE(is.good(), "cannot open job checkpoint '" << path << "'");
  return load_job_checkpoint(is, path);
}

}  // namespace aqt
