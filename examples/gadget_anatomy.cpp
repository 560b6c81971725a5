// Anatomy of one gadget hand-off (Lemma 3.6, Fig. 3.1).
//
// Sets up C(S, F) on the first gadget of F_n^2, runs the hand-off
// adversary, and prints the R_i cascade — the predicted rate at which old
// packets pass each e'-edge — against the measured buffer floors Q_i, plus
// the final C(S', F') check.  Also dumps the network as Graphviz DOT.
//
//   ./gadget_anatomy [--r 7/10] [--S 800] [--dot out.dot]
#include <fstream>
#include <iostream>

#include "aqt/adversaries/lps.hpp"
#include "aqt/analysis/lps_math.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/core/rate_check.hpp"
#include "aqt/util/cli.hpp"
#include "aqt/util/table.hpp"

int main(int argc, char** argv) {
  using namespace aqt;
  Cli cli("gadget_anatomy", "one Lemma 3.6 hand-off, dissected");
  cli.flag("r", "7/10", "injection rate");
  cli.flag("S", "800", "initial C(S, F) size");
  cli.flag("dot", "", "write the F_n^2 graph as DOT to this path");
  if (!cli.parse(argc, argv)) return 0;

  const Rat r = cli.get_rat("r");
  LpsConfig cfg = make_lps_config(r);
  cfg.enforce_s0 = false;
  const std::int64_t S = cli.get_int("S");
  const double rd = r.to_double();

  const ChainedGadgets net = build_chain(cfg.n, 2);
  if (!cli.get("dot").empty()) {
    std::ofstream out(cli.get("dot"));
    out << net.graph.to_dot("F_n^2");
    std::cout << "wrote " << cli.get("dot") << "\n";
  }

  std::cout << "\nGadget F_n with n = " << cfg.n << " at r = " << r
            << " (eps = " << cfg.eps() << "), S = " << S << "\n\n";

  // The theory side: R_i cascade and stream lengths.
  Table theory({"i", "R_i (old-packet rate into e'_i)", "t_i (stream len)",
                "Q_i (buffer floor at 2S+i)"});
  for (std::int64_t i = 1; i <= cfg.n; ++i) {
    theory.rowv(static_cast<long long>(i),
                Table::cell(lps_R(rd, i), 5),
                Table::cell(lps_t(static_cast<double>(S), rd, i), 1),
                Table::cell(lps_Q(static_cast<double>(S), rd, i), 1));
  }
  std::cout << "Predicted cascade (Claims 3.9 and 3.11):\n\n"
            << theory << "\n";

  // The simulation side, reading the e'-path buffers as the run passes
  // time 2S + i, where Claim 3.11 puts the buffer floor Q_i of e'_i.
  FifoProtocol fifo;
  EngineConfig ec;
  ec.audit_rates = true;
  Engine eng(net.graph, fifo, ec);
  setup_gadget_invariant(eng, net, 0, S);
  const std::vector<EdgeId>& e_path = net.gadgets[1].e_path;
  std::vector<std::size_t> q(e_path.size());
  LpsHandoff phase(net, cfg, 0);
  while (!phase.finished(eng.now() + 1)) {
    eng.step(&phase);
    const Time i = eng.now() - 2 * S;
    if (i >= 1 && i <= cfg.n)
      q[static_cast<std::size_t>(i - 1)] =
          eng.queue_size(e_path[static_cast<std::size_t>(i - 1)]);
  }

  Table cascade({"i", "Q_i predicted", "queue of e'_i at 2S+i"});
  for (std::int64_t i = 1; i <= cfg.n; ++i) {
    cascade.rowv(static_cast<long long>(i),
                 Table::cell(lps_Q(static_cast<double>(S), rd, i), 1),
                 static_cast<long long>(q[static_cast<std::size_t>(i - 1)]));
  }
  std::cout << "Measured cascade (Claim 3.11 floors):\n\n" << cascade
            << "\n";

  Table measured({"quantity", "predicted", "measured"});
  const double s_prime = lps_s_prime(static_cast<double>(S), rd, cfg.n);
  const auto rep = inspect_gadget(eng, net, 1);
  measured.rowv("S' in e'-buffers", Table::cell(s_prime, 1),
                static_cast<long long>(rep.e_total));
  measured.rowv("S' at ingress a'", Table::cell(s_prime, 1),
                static_cast<long long>(rep.ingress_count));
  measured.rowv("empty e'-buffers", 0ll,
                static_cast<long long>(rep.empty_e_buffers));
  measured.rowv("gain S'/S", Table::cell(lps_gadget_gain(rd, cfg.n), 4),
                Table::cell(static_cast<double>(rep.S()) /
                                static_cast<double>(S),
                            4));
  std::cout << "After the hand-off (time 2S+n = "
            << static_cast<long long>(eng.now()) << "):\n\n"
            << measured << "\n";

  eng.finalize_audit();
  const auto rc = check_rate_r(eng.audit(), r);
  std::cout << "Exact rate-" << r
            << " feasibility of the composed adversary (with Lemma 3.3 "
               "reroutes): "
            << rc.describe(net.graph) << "\n";
  return rc.ok ? 0 : 1;
}
