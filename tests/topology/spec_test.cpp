#include "aqt/topology/spec.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "aqt/util/check.hpp"

namespace aqt {
namespace {

struct SpecCase {
  const char* spec;
  std::size_t nodes;
  std::size_t edges;
};

// Print the spec string rather than the raw bytes, which hold the address of
// the string literal and so would make the test names differ between builds.
void PrintTo(const SpecCase& c, std::ostream* os) { *os << c.spec; }

class SpecSweep : public ::testing::TestWithParam<SpecCase> {};

TEST_P(SpecSweep, BuildsExpectedShape) {
  const SpecCase c = GetParam();
  const TopologySpec out = parse_topology_spec(c.spec, /*seed=*/1);
  EXPECT_EQ(out.graph.node_count(), c.nodes) << c.spec;
  EXPECT_EQ(out.graph.edge_count(), c.edges) << c.spec;
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, SpecSweep,
    ::testing::Values(SpecCase{"line:5", 6, 5}, SpecCase{"ring:7", 7, 7},
                      SpecCase{"bidiring:5", 5, 10},
                      SpecCase{"grid:3x4", 12, 17},
                      SpecCase{"torus:3x3", 9, 18},
                      SpecCase{"tree:3", 15, 14},
                      SpecCase{"hypercube:3", 8, 24},
                      SpecCase{"parallel:4", 2, 4},
                      // lps:2x3: M+1 boundary + 2nM path edges + e0.
                      SpecCase{"lps:2x3", 14, 17}),
    [](const auto& param_info) {
      std::string name = param_info.param.spec;
      for (char& ch : name)
        if (ch == ':' || ch == 'x') ch = '_';
      return name;
    });

TEST(Spec, LpsExposesGadgetHandles) {
  const TopologySpec out = parse_topology_spec("lps:3x2");
  EXPECT_TRUE(out.is_lps);
  EXPECT_EQ(out.lps_net.gadget_count, 2);
  EXPECT_EQ(out.lps_net.n, 3);
  EXPECT_NE(out.lps_net.back_edge, kNoEdge);
}

TEST(Spec, NonLpsLeavesHandleEmpty) {
  const TopologySpec out = parse_topology_spec("ring:4");
  EXPECT_FALSE(out.is_lps);
}

TEST(Spec, DagIsSeedDeterministic) {
  EXPECT_EQ(parse_topology_spec("dag:20", 5).graph.edge_count(),
            parse_topology_spec("dag:20", 5).graph.edge_count());
}

TEST(Spec, MalformedSpecsThrow) {
  for (const char* bad :
       {"", "grid", "grid:", "grid:3", "grid:x3", "grid:3x", "nope:4",
        "ring:abc", "ring:4junk", "lps:9"}) {
    EXPECT_THROW((void)parse_topology_spec(bad), PreconditionError) << bad;
  }
}

TEST(Spec, GrammarStringListsAllKinds) {
  const std::string& g = topology_spec_grammar();
  for (const char* kind : {"line", "ring", "bidiring", "grid", "torus",
                           "tree", "hypercube", "dag", "parallel", "lps"})
    EXPECT_NE(g.find(kind), std::string::npos) << kind;
}

}  // namespace
}  // namespace aqt
