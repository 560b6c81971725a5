// Definition 3.4 wiring of the lps:NxM generator: per-gadget path lengths
// and contiguity, egress/ingress identification between neighbours, and
// the back edge that closes the chain (Fig. 3.2).  The check runs on the
// handles the generator builds and on deliberately broken ones, so it is
// known to catch what it checks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aqt/topology/gadget.hpp"
#include "aqt/topology/spec.hpp"

namespace aqt {
namespace {

/// Every way `net` breaks Definition 3.4; empty when it is wired right.
std::vector<std::string> wiring_faults(const ChainedGadgets& net) {
  std::vector<std::string> faults;
  const Graph& g = net.graph;
  auto edge_ok = [&g](EdgeId e) { return e != kNoEdge && e < g.edge_count(); };
  if (net.n < 1) faults.push_back("gadget path length n must be >= 1");
  if (net.gadget_count < 1 ||
      net.gadgets.size() != static_cast<std::size_t>(net.gadget_count)) {
    faults.push_back("gadget handle lists " +
                     std::to_string(net.gadgets.size()) +
                     " gadgets but declares gadget_count=" +
                     std::to_string(net.gadget_count));
    return faults;
  }

  // A contiguous run of n edges from `from`'s head to `to`'s tail, as
  // Definition 3.4's parallel paths require.
  auto check_path = [&](const std::vector<EdgeId>& path, EdgeId from,
                        EdgeId to, const std::string& label) {
    if (path.size() != static_cast<std::size_t>(net.n)) {
      faults.push_back(label + " has " + std::to_string(path.size()) +
                       " edges, expected n=" + std::to_string(net.n));
      return;
    }
    for (const EdgeId e : path) {
      if (!edge_ok(e)) {
        faults.push_back(label + " contains an unresolved edge id");
        return;
      }
    }
    if (!edge_ok(from) || !edge_ok(to)) return;  // Reported separately.
    NodeId at = g.head(from);
    for (const EdgeId e : path) {
      if (g.tail(e) != at) {
        faults.push_back(label + " is not contiguous at edge '" +
                         g.edge(e).name + "'");
        return;
      }
      at = g.head(e);
    }
    if (at != g.tail(to))
      faults.push_back(label + " does not end at the egress tail");
  };

  for (std::size_t k = 0; k < net.gadgets.size(); ++k) {
    const GadgetEdges& gd = net.gadgets[k];
    const std::string label = "gadget F(" + std::to_string(k + 1) + ")";
    if (!edge_ok(gd.ingress)) faults.push_back(label + " has no ingress");
    if (!edge_ok(gd.egress)) faults.push_back(label + " has no egress");
    check_path(gd.e_path, gd.ingress, gd.egress, label + " e-path");
    check_path(gd.f_path, gd.ingress, gd.egress, label + " f-path");
    if (k + 1 < net.gadgets.size() && gd.egress != net.gadgets[k + 1].ingress)
      faults.push_back(label + "'s egress is not F(" + std::to_string(k + 2) +
                       ")'s ingress (the 'o' composition of Definition 3.4)");
  }

  if (net.back_edge != kNoEdge) {
    const GadgetEdges& first = net.gadgets.front();
    const GadgetEdges& last = net.gadgets.back();
    if (!edge_ok(net.back_edge)) {
      faults.push_back("closed chain's back edge e0 is unresolved");
    } else if (edge_ok(last.egress) && edge_ok(first.ingress) &&
               (g.tail(net.back_edge) != g.head(last.egress) ||
                g.head(net.back_edge) != g.tail(first.ingress))) {
      faults.push_back("back edge e0 does not close the chain from the last "
                       "egress to the first ingress (Fig. 3.2)");
    }
  }
  return faults;
}

TEST(GadgetWiringLintTest, AcceptsBuiltChains) {
  for (const char* spec : {"lps:4x2", "lps:9x2", "lps:9x8"}) {
    const TopologySpec topo = parse_topology_spec(spec);
    ASSERT_TRUE(topo.is_lps) << spec;
    EXPECT_EQ(wiring_faults(topo.lps_net), std::vector<std::string>{})
        << spec;
  }
  EXPECT_TRUE(wiring_faults(build_chain(2, 3)).empty());
}

TEST(GadgetWiringLintTest, RejectsTruncatedEPath) {
  ChainedGadgets net = parse_topology_spec("lps:4x2").lps_net;
  net.gadgets[0].e_path.pop_back();
  const std::vector<std::string> faults = wiring_faults(net);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0], "gadget F(1) e-path has 3 edges, expected n=4");
}

TEST(GadgetWiringLintTest, RejectsBrokenEgressIdentification) {
  ChainedGadgets net = parse_topology_spec("lps:4x2").lps_net;
  net.gadgets[1].egress = net.gadgets[1].ingress;
  const std::vector<std::string> faults = wiring_faults(net);
  ASSERT_FALSE(faults.empty());
  EXPECT_NE(faults[0].find("gadget F(2) e-path does not end at the egress"),
            std::string::npos)
      << faults[0];
}

}  // namespace
}  // namespace aqt
