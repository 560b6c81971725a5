// End-to-end over real sockets: the JSONL protocol envelope, error
// replies, and the serve/offline byte-identity contract (the job result
// event carries the exact canonical_result_json bytes).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "aqt/runner/run_spec.hpp"
#include "aqt/util/json.hpp"
#include "aqt/serve/registry.hpp"
#include "aqt/serve/request.hpp"
#include "aqt/serve/result.hpp"
#include "aqt/serve/server.hpp"

namespace aqt {
namespace serve {
namespace {

/// A minimal blocking JSONL client for the tests.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(::send(fd_, framed.data(), framed.size(), 0),
              static_cast<ssize_t>(framed.size()));
  }

  /// Reads one newline-terminated line (blocking; gtest-fails on EOF).
  std::string read_line() {
    for (;;) {
      const std::size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        const std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed mid-read";
        return "";
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Sends one request and returns its *reply*.  Async job events can
  /// legally arrive before the reply (a fast job finishes while the reply
  /// is still being written), so event lines are stashed for next_event.
  JsonValue rpc(const std::string& line) {
    send_line(line);
    for (;;) {
      JsonValue doc = parse_json(read_line(), "reply");
      if (doc.find("event") == nullptr) return doc;
      events_.push_back(std::move(doc));
    }
  }

  /// Returns the next async event (stashed or read fresh).
  JsonValue next_event() {
    if (!events_.empty()) {
      JsonValue doc = std::move(events_.front());
      events_.pop_front();
      return doc;
    }
    for (;;) {
      JsonValue doc = parse_json(read_line(), "event");
      if (doc.find("event") != nullptr) return doc;
      ADD_FAILURE() << "expected an event, got reply: " << write_json(doc);
      return doc;
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::deque<JsonValue> events_;
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceConfig service_config;
    service_config.workers = 2;
    service_ = std::make_unique<Service>(registry_, service_config);
    ServerConfig server_config;
    server_config.port = 0;  // Ephemeral.
    server_ = std::make_unique<Server>(*service_, registry_, server_config);
    server_->start();
    ASSERT_NE(server_->port(), 0);
  }
  void TearDown() override { server_->stop(); }

  Registry registry_;
  std::unique_ptr<Service> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingHelloStatusCatalog) {
  LineClient client(server_->port());

  JsonValue pong = client.rpc(R"({"op": "ping"})");
  EXPECT_TRUE(pong.find("ok")->as_bool());
  EXPECT_EQ(pong.find("op")->as_string(), "ping");

  JsonValue hello = client.rpc(R"({"op": "hello", "client": "tester"})");
  EXPECT_TRUE(hello.find("ok")->as_bool());
  EXPECT_EQ(hello.find("aqt_serve")->as_int(), 1);
  EXPECT_EQ(hello.find("run_request_version")->as_int(), 1);
  EXPECT_EQ(hello.find("client")->as_string(), "tester");

  JsonValue status = client.rpc(R"({"op": "status"})");
  EXPECT_TRUE(status.find("ok")->as_bool());
  EXPECT_FALSE(status.find("draining")->as_bool());

  JsonValue catalog = client.rpc(R"({"op": "catalog"})");
  EXPECT_TRUE(catalog.find("ok")->as_bool());
  EXPECT_EQ(catalog.find("catalog")->find("aqt_catalog")->as_int(), 1);
}

TEST_F(ServerTest, MalformedLinesGetStableCodes) {
  LineClient client(server_->port());

  JsonValue bad_json = client.rpc("this is not json");
  EXPECT_FALSE(bad_json.find("ok")->as_bool());
  EXPECT_EQ(bad_json.find("code")->as_string(), errc::kBadJson);

  JsonValue bad_op = client.rpc(R"({"op": "frobnicate"})");
  EXPECT_FALSE(bad_op.find("ok")->as_bool());
  EXPECT_EQ(bad_op.find("code")->as_string(), errc::kBadOp);

  JsonValue no_op = client.rpc(R"({"noop": 1})");
  EXPECT_FALSE(no_op.find("ok")->as_bool());
  EXPECT_EQ(no_op.find("code")->as_string(), errc::kBadOp);

  JsonValue unknown_job = client.rpc(R"({"op": "cancel", "job": 424242})");
  EXPECT_FALSE(unknown_job.find("ok")->as_bool());
  EXPECT_EQ(unknown_job.find("code")->as_string(), errc::kUnknownJob);

  // A bad submit reports the compile-level code.
  JsonValue bad_submit = client.rpc(
      R"({"op": "submit", "request": {"aqt_run_request": 1,)"
      R"( "topology": "nope:1", "protocol": "FIFO",)"
      R"( "adversary": {"kind": "none"}, "steps": 10}})");
  EXPECT_FALSE(bad_submit.find("ok")->as_bool());
  EXPECT_EQ(bad_submit.find("code")->as_string(), errc::kUnknownTopology);
}

TEST_F(ServerTest, ServedJobMatchesOfflineBytes) {
  LineClient client(server_->port());

  RunRequest req;
  req.id = "e2e-1";
  req.topology = "grid:3x3";
  req.protocol = "FIFO";
  req.adversary.kind = "stochastic";
  req.adversary.w = 8;
  req.adversary.r = Rat(1, 4);
  req.adversary.d = 4;
  req.seed = 5;
  req.steps = 400;

  JsonValue submit = JsonValue::make_object();
  submit.set("op", JsonValue::make_string("submit"));
  submit.set("request", run_request_to_json(req));
  JsonValue accepted = client.rpc(write_json(submit));
  ASSERT_TRUE(accepted.find("ok")->as_bool())
      << write_json(accepted);
  const std::int64_t job = accepted.find("job")->as_int();
  EXPECT_GE(job, 1);

  // The async result event for that job (possibly already stashed if it
  // raced ahead of the submit reply).
  JsonValue event = client.next_event();
  EXPECT_EQ(event.find("event")->as_string(), "result");
  EXPECT_EQ(event.find("job")->as_int(), job);
  EXPECT_EQ(event.find("state")->as_string(), "done");
  EXPECT_GE(event.find("start_seq")->as_int(), 1);

  // THE contract: the served bytes equal the offline run's canonical form.
  const RunResult offline = execute_run(registry_.compile(req));
  ASSERT_TRUE(offline.ok()) << offline.error;
  EXPECT_EQ(event.find("result_canonical")->as_string(),
            canonical_result_json(offline));
}

TEST_F(ServerTest, ServedScriptedJobWithARerouteMatchesOfflineBytes) {
  LineClient client(server_->port());
  const RunRequest req = parse_run_request(
      R"({"aqt_run_request": 1, "id": "scripted-reroute",)"
      R"( "topology": "lps:4x2", "protocol": "FIFO",)"
      R"( "adversary": {"kind": "scripted", "events": [)"
      R"({"t": 1, "route": ["a1", "g1.e1", "g1.e2", "g1.e3", "g1.e4", "a2"]},)"
      R"({"t": 3, "route": ["g1.f1", "g1.f2", "g1.f3", "g1.f4"]},)"
      R"({"t": 6, "packet": 0,)"
      R"( "suffix": ["g2.f1", "g2.f2", "g2.f3", "g2.f4", "a3"]}]},)"
      R"( "steps": 50, "drain": true, "audit": {"r": "7/10"}})",
      "test");
  JsonValue submit = JsonValue::make_object();
  submit.set("op", JsonValue::make_string("submit"));
  submit.set("request", run_request_to_json(req));
  JsonValue accepted = client.rpc(write_json(submit));
  ASSERT_TRUE(accepted.find("ok")->as_bool()) << write_json(accepted);
  JsonValue event = client.next_event();
  EXPECT_EQ(event.find("state")->as_string(), "done");

  const RunResult offline = execute_run(registry_.compile(req));
  ASSERT_TRUE(offline.ok()) << offline.error;
  EXPECT_TRUE(offline.feasible);
  const std::string served = event.find("result_canonical")->as_string();
  EXPECT_EQ(served, canonical_result_json(offline));
  EXPECT_NE(served.find("\"absorbed\":2"), std::string::npos) << served;
}

TEST_F(ServerTest, LpsRateOutsideTheConstructionRangeIsSRV009) {
  LineClient client(server_->port());
  for (const char* r : {"1/2", "3/2"}) {
    JsonValue reply = client.rpc(
        std::string(R"({"op": "submit", "request": {"aqt_run_request": 1,)"
                    R"( "topology": "lps:9x2", "protocol": "FIFO",)"
                    R"( "adversary": {"kind": "lps", "r": ")") +
        r + R"("}, "steps": 10}})");
    EXPECT_FALSE(reply.find("ok")->as_bool()) << r;
    EXPECT_EQ(reply.find("code")->as_string(), errc::kBadParam)
        << r << ": " << write_json(reply);
  }
}

/// A served rejection is the scripted findings as one JSON error reply.
class LintRenderTest : public ServerTest {};

TEST_F(LintRenderTest, JsonCarriesVerdictCodesAndCounts) {
  LineClient client(server_->port());
  // The edge name carries a quote and a tab, which the reply must escape.
  const std::string bad_name = "r\"9\t";
  RunRequest req;
  req.topology = "ring:3";
  req.adversary.kind = "scripted";
  for (const Time t : {1, 2}) {
    ScriptEvent ev;
    ev.t = t;
    ev.edges = {"r0", bad_name};
    req.adversary.events.push_back(ev);
  }
  JsonValue submit = JsonValue::make_object();
  submit.set("op", JsonValue::make_string("submit"));
  submit.set("request", run_request_to_json(req));

  const JsonValue reply = client.rpc(write_json(submit));
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("code")->as_string(), errc::kBadParam);
  const std::string line = "dangling-edge: route names edge '" + bad_name +
                           "', which does not exist in this topology";
  EXPECT_EQ(reply.find("error")->as_string(),
            "events[0]: " + line + "\nevents[1]: " + line);
}

TEST_F(LintRenderTest, HumanOutputNamesTheFindingCode) {
  RunRequest req;
  req.topology = "ring:3";
  req.adversary.kind = "scripted";
  ScriptEvent ev;
  ev.t = 1;
  ev.edges = {"r0", "r9"};
  req.adversary.events.push_back(ev);
  try {
    (void)registry_.compile(req);
    FAIL() << "compiled a route through a missing edge";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), errc::kBadParam);
    EXPECT_EQ(std::string(e.what()),
              "events[0]: dangling-edge: route names edge 'r9', which does "
              "not exist in this topology");
  }
}

TEST_F(ServerTest, MetricsEndpointSpeaksPrometheus) {
  const std::string text = server_->metrics_text();
  EXPECT_NE(text.find("# TYPE aqt_serve_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("aqt_serve_submitted_total"), std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace aqt
