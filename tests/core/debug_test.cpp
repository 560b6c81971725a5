// Tests for the state dumper.
#include <gtest/gtest.h>

#include <string>

#include "aqt/core/debug.hpp"
#include "aqt/core/engine.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/topology/generators.hpp"

namespace aqt {
namespace {

TEST(DumpState, ShowsQueuesInForwardingOrder) {
  const Graph g = make_line(3);
  FifoProtocol fifo;
  Engine eng(g, fifo);
  eng.add_initial_packet({0, 1, 2}, /*tag=*/7);
  eng.add_initial_packet({0}, /*tag=*/8);
  const std::string dump = dump_state(eng);
  EXPECT_NE(dump.find("t=0"), std::string::npos);
  EXPECT_NE(dump.find("[l0] 2:"), std::string::npos);
  EXPECT_NE(dump.find("(tag 7) l0>l1>l2"), std::string::npos);
  EXPECT_NE(dump.find("(tag 8) l0"), std::string::npos);
  // Empty buffers omitted by default.
  EXPECT_EQ(dump.find("[l1]"), std::string::npos);
}

TEST(DumpState, TruncatesLongQueues) {
  const Graph g = make_line(2);
  FifoProtocol fifo;
  Engine eng(g, fifo);
  for (int i = 0; i < 20; ++i) eng.add_initial_packet({0});
  DumpOptions opts;
  opts.max_per_buffer = 3;
  opts.show_routes = false;
  const std::string dump = dump_state(eng, opts);
  EXPECT_NE(dump.find("[l0] 20:"), std::string::npos);
  EXPECT_NE(dump.find("..."), std::string::npos);
}

TEST(DumpState, CanIncludeEmptyBuffers) {
  const Graph g = make_line(2);
  FifoProtocol fifo;
  Engine eng(g, fifo);
  DumpOptions opts;
  opts.skip_empty = false;
  const std::string dump = dump_state(eng, opts);
  EXPECT_NE(dump.find("[l0] 0:"), std::string::npos);
  EXPECT_NE(dump.find("[l1] 0:"), std::string::npos);
}

}  // namespace
}  // namespace aqt
