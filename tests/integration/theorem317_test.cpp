// Integration tests for Theorem 3.17: FIFO is unstable at rate 1/2 + eps.
// The full iterative adversary (bootstrap, hand-off cascade, drain, stitch)
// multiplies the flat ingress queue every outer iteration.
#include <gtest/gtest.h>

#include "aqt/adversaries/lps.hpp"
#include "aqt/analysis/lps_math.hpp"
#include "aqt/core/protocol.hpp"
#include "aqt/core/rate_check.hpp"
#include "aqt/core/stability.hpp"
#include "aqt/util/check.hpp"

namespace aqt {
namespace {

LpsConfig test_config(const Rat& r) {
  LpsConfig cfg = make_lps_config(r);
  cfg.enforce_s0 = false;
  return cfg;
}

struct LoopRun {
  std::vector<LpsIterationRecord> history;
  Time steps = 0;
  bool rate_feasible = true;
  std::uint64_t max_queue = 0;
};

LoopRun run_loop(const Rat& r, std::int64_t M, std::int64_t s_star,
                 std::int64_t iterations, bool audit) {
  const LpsConfig cfg = test_config(r);
  const ChainedGadgets net = build_closed_chain(cfg.n, M);
  FifoProtocol fifo;
  EngineConfig ec;
  ec.audit_rates = audit;
  Engine eng(net.graph, fifo, ec);
  setup_flat_queue(eng, net, 0, s_star);
  LpsAdversary adv(net, cfg, iterations);
  while (!adv.finished(eng.now() + 1)) eng.step(&adv);
  LoopRun run;
  run.history = adv.history();
  run.steps = eng.now();
  run.max_queue = eng.metrics().max_queue_global();
  if (audit) {
    eng.finalize_audit();
    run.rate_feasible = check_rate_r(eng.audit(), r).ok;
  }
  return run;
}

TEST(Theorem317, QueueGrowsEveryIterationWithSufficientM) {
  // At r = 7/10 with n = 9, the exact per-iteration growth
  // (1-R_n) * (2(1-R_n))^(M-1) * r^3 exceeds 1 from M = 7; M = 8 gives
  // comfortable ~2x growth per iteration.
  const Rat r(7, 10);
  ASSERT_GT(lps_measured_iteration_growth(0.7, 9, 8), 1.5);
  const LoopRun run = run_loop(r, /*M=*/8, /*s_star=*/1200,
                               /*iterations=*/3, /*audit=*/false);
  ASSERT_EQ(run.history.size(), 3u);
  for (const auto& rec : run.history) {
    EXPECT_GT(rec.s_end, rec.s_start) << "iteration " << rec.iteration;
  }
  // Unbounded growth: the final queue dwarfs the initial one.
  EXPECT_GT(run.history.back().s_end, 4 * run.history.front().s_start);
}

TEST(Theorem317, GrowthMatchesExactPrediction) {
  const Rat r(7, 10);
  const LoopRun run = run_loop(r, 8, 1600, 2, /*audit=*/false);
  const double predicted = lps_measured_iteration_growth(0.7, 9, 8);
  for (const auto& rec : run.history) {
    const double measured = static_cast<double>(rec.s_end) /
                            static_cast<double>(rec.s_start);
    EXPECT_NEAR(measured, predicted, 0.30 * predicted)
        << "iteration " << rec.iteration;
  }
}

TEST(Theorem317, CascadeCompoundsAcrossGadgets) {
  const LoopRun run = run_loop(Rat(7, 10), 6, 1200, 1, /*audit=*/false);
  ASSERT_EQ(run.history.size(), 1u);
  const auto& cascade = run.history.front().s_cascade;
  ASSERT_EQ(cascade.size(), 6u);  // Bootstrap + 5 hand-offs.
  for (std::size_t i = 0; i + 1 < cascade.size(); ++i)
    EXPECT_GE(static_cast<double>(cascade[i + 1]),
              1.2 * static_cast<double>(cascade[i]))
        << "stage " << i;
}

TEST(Theorem317, WholeLoopIsRateFeasible) {
  // The complete composed adversary — reroutes included — passes the exact
  // rate-r feasibility check.
  const LoopRun run = run_loop(Rat(7, 10), 4, 600, 2, /*audit=*/true);
  EXPECT_TRUE(run.rate_feasible);
}

TEST(Theorem317, RateJustAboveHalfStillAmplifiesPerGadget) {
  // At r = 0.51 a growing loop needs an impractically long chain
  // (empirical min M > 100), but the per-gadget gain — the engine of the
  // theorem — must still exceed 1.
  const double gain = lps_gadget_gain(0.51, lps_params(0.01).n);
  EXPECT_GT(gain, 1.0);
  // And at r = 1/2 exactly, no n achieves gain > 1 (the threshold).
  for (std::int64_t n = 1; n <= 60; ++n)
    EXPECT_LE(lps_gadget_gain(0.5, n), 1.0) << n;
}

TEST(Theorem317, InsufficientMShrinks) {
  // With too few gadgets the stitch loss dominates: the queue decays --
  // matching the theory that M must satisfy r^3 (1+eps)^M / 4 > 1.
  const LoopRun run = run_loop(Rat(7, 10), 2, 1000, 2, /*audit=*/false);
  ASSERT_GE(run.history.size(), 1u);
  EXPECT_LT(run.history.front().s_end, run.history.front().s_start);
}

TEST(Theorem317, AdversaryStopsWhenQueueCollapses) {
  // With M = 2 the queue decays; the adversary detects the collapse and
  // reports finished instead of running forever.
  const LpsConfig cfg = test_config(Rat(7, 10));
  const ChainedGadgets net = build_closed_chain(cfg.n, 2);
  FifoProtocol fifo;
  Engine eng(net.graph, fifo);
  setup_flat_queue(eng, net, 0, 300);
  LpsAdversary adv(net, cfg, /*max_iterations=*/50);
  Time cap = 2000000;
  while (!adv.finished(eng.now() + 1) && eng.now() < cap) eng.step(&adv);
  EXPECT_LT(eng.now(), cap);
  EXPECT_LT(adv.history().size(), 50u);
}

// Sweep the chain length across the growth threshold: the measured
// per-iteration factor must track (1-R_n)(2(1-R_n))^(M-1) r^3 on both
// sides of 1 (M = 5 shrinks, M = 7+ grows, at r = 7/10 with n = 9 the
// exact crossover is M = 6).
class ChainLengthSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ChainLengthSweep, GrowthTracksExactFormula) {
  const std::int64_t M = GetParam();
  const Rat r(7, 10);
  const LoopRun run = run_loop(r, M, 1400, 1, /*audit=*/false);
  ASSERT_EQ(run.history.size(), 1u);
  const auto& rec = run.history.front();
  const double measured = static_cast<double>(rec.s_end) /
                          static_cast<double>(rec.s_start);
  const double predicted = lps_measured_iteration_growth(0.7, 9, M);
  EXPECT_NEAR(measured, predicted, 0.25 * predicted + 0.05) << "M=" << M;
  EXPECT_EQ(measured > 1.0, predicted > 1.0) << "M=" << M;
}

INSTANTIATE_TEST_SUITE_P(AcrossThreshold, ChainLengthSweep,
                         ::testing::Values(3, 5, 7, 8, 10),
                         [](const auto& param_info) {
                           return "M" + std::to_string(param_info.param);
                         });

TEST(Theorem317, MaxQueueTracksFinalIteration) {
  const LoopRun run = run_loop(Rat(7, 10), 8, 1200, 3, /*audit=*/false);
  // The biggest buffer ever is at least the final flat queue.
  EXPECT_GE(run.max_queue,
            static_cast<std::uint64_t>(run.history.back().s_end));
}

}  // namespace
}  // namespace aqt
