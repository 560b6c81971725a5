// Golden trace-hash matrix: scenario x protocol x execution path x jobs.
//
// The engine promises that its fast paths are *observably invisible*: a run
// executed through the precompiled-schedule path (oblivious adversaries
// lowered blockwise into flat injection spans) must produce a run trace
// byte-identical to the per-step polled path, and the runner pool must
// produce the same bytes at any --jobs.  This suite pins that promise to
// committed FNV-1a content hashes: every cell of a scenario x protocol
// matrix is executed compiled, polled, and through run_pool at jobs 1/2/4,
// and all five hashes must equal the committed constant.
//
// If an intentional trace-format or semantics change moves the hashes,
// regenerate the table with this command, written on one line:
//   AQT_PRINT_GOLDEN=1 ./tests/test_verify
//     --gtest_filter='GoldenMatrix.*' 2>&1 | grep '^  {'
// and paste the printed rows over kGolden below.  An *unintentional* move
// means the compiled path, the pool, or the engine changed observable
// behavior — that is the regression this suite exists to catch.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aqt/adversaries/scripted.hpp"
#include "aqt/adversaries/stochastic.hpp"
#include "aqt/core/adversary.hpp"
#include "aqt/core/types.hpp"
#include "aqt/runner/pool.hpp"
#include "aqt/runner/run_spec.hpp"
#include "aqt/topology/generators.hpp"
#include "aqt/util/rational.hpp"

namespace aqt {
namespace {

/// Forwards to an oblivious adversary while denying obliviousness, forcing
/// the engine onto the per-step polled path with identical inputs.
class PolledShim final : public Adversary {
 public:
  explicit PolledShim(std::unique_ptr<Adversary> inner)
      : inner_(std::move(inner)) {}

  void step(Time now, const Engine& engine, AdversaryStep& out) override {
    inner_->step(now, engine, out);
  }
  [[nodiscard]] bool finished(Time now) const override {
    return inner_->finished(now);
  }
  [[nodiscard]] bool is_oblivious() const override { return false; }

 private:
  std::unique_ptr<Adversary> inner_;
};

struct Scenario {
  const char* name;
  TopologyRecipe topology;
  AdversaryFactory adversary;
  Time steps;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;

  // Fixed script on a 6-ring: bursts on overlapping arcs, then silence (the
  // run finishes early and drains).
  out.push_back(Scenario{
      "scripted-ring",
      TopologyRecipe{"ring6", [] { return make_ring(6); }},
      [](const Graph&, std::uint64_t) -> std::unique_ptr<Adversary> {
        auto adv = std::make_unique<ScriptedAdversary>();
        adv->inject_at(1, Route{0, 1, 2}, 10);
        adv->inject_at(1, Route{3, 4, 5}, 11);
        adv->inject_at(1, Route{1, 2, 3}, 12);
        adv->inject_at(2, Route{0, 1}, 20);
        adv->inject_at(2, Route{2, 3, 4, 5}, 21);
        adv->inject_at(5, Route{4, 5, 0}, 50);
        adv->inject_at(9, Route{5, 0, 1, 2}, 90);
        return adv;
      },
      64,
  });

  // Floor-paced streams on a line: sustained rational-rate contention on
  // the shared middle edges.
  out.push_back(Scenario{
      "stream-line",
      TopologyRecipe{"line8", [] { return make_line(8); }},
      [](const Graph&, std::uint64_t) -> std::unique_ptr<Adversary> {
        auto adv = std::make_unique<StreamAdversary>();
        adv->add_stream(Route{0, 1, 2, 3}, Rat(1, 2), 1, 20, 1);
        adv->add_stream(Route{4, 5, 6, 7}, Rat(1, 3), 3, 15, 2);
        adv->add_stream(Route{2, 3, 4, 5}, Rat(1, 4), 1, 10, 3);
        return adv;
      },
      128,
  });

  // Seeded stochastic (w, r) traffic on a 3x3 grid: the dedup-heavy
  // workload the route interner and block compiler were built for.
  out.push_back(Scenario{
      "stochastic-grid",
      TopologyRecipe{"grid3x3", [] { return make_grid(3, 3); }},
      [](const Graph& g, std::uint64_t seed) -> std::unique_ptr<Adversary> {
        StochasticConfig cfg;
        cfg.w = 4;
        cfg.r = Rat(3, 4);
        cfg.max_route_len = 4;
        cfg.seed = seed;
        cfg.attempts_per_step = 4;
        return std::make_unique<StochasticAdversary>(g, cfg);
      },
      256,
  });

  return out;
}

const char* const kProtocols[] = {"FIFO", "LIS", "NTG"};

/// Committed golden hashes, kGolden[scenario][protocol] in the order of
/// scenarios() and kProtocols.  Regenerate per the header comment.
constexpr std::uint64_t kGolden[3][3] = {
    {0xf24af04217e16c5fULL, 0xb9c78615c199abc0ULL, 0x13046c054cfcd021ULL},
    {0x096d7ba1625988c1ULL, 0xa4049be6ff24ba47ULL, 0x77215a19e5637044ULL},
    {0xc401bb8b35f564fcULL, 0x44bf11dd39dc78feULL, 0x19e9e896abfe2fabULL},
};

RunSpec make_spec(const Scenario& sc, const char* protocol, bool polled) {
  RunSpec spec;
  spec.name = std::string(sc.name) + "/" + protocol +
              (polled ? "/polled" : "/compiled");
  spec.topology = sc.topology;
  spec.protocol = protocol;
  spec.seed = 7;
  spec.steps = sc.steps;
  spec.drain_after = true;
  spec.artifacts.trace_hash = true;
  if (polled) {
    const AdversaryFactory inner = sc.adversary;
    spec.adversary = [inner](const Graph& g, std::uint64_t seed) {
      return std::make_unique<PolledShim>(inner(g, seed));
    };
  } else {
    spec.adversary = sc.adversary;
  }
  return spec;
}

TEST(GoldenMatrix, CompiledPolledAndPoolJobsAgreeWithCommittedHashes) {
  // aqt-audit: allow(AUD001) -- regeneration switch, never affects a run
  const bool print = std::getenv("AQT_PRINT_GOLDEN") != nullptr;
  const std::vector<Scenario> scs = scenarios();
  ASSERT_EQ(scs.size(), 3u);

  // One compiled and one polled spec per cell, in matching order.
  std::vector<RunSpec> compiled;
  std::vector<RunSpec> polled;
  for (const Scenario& sc : scs) {
    for (const char* protocol : kProtocols) {
      compiled.push_back(make_spec(sc, protocol, false));
      polled.push_back(make_spec(sc, protocol, true));
    }
  }

  // Serial reference execution of the compiled path.
  std::vector<std::uint64_t> hashes;
  for (const RunSpec& spec : compiled) {
    const RunResult res = execute_run(spec);
    ASSERT_TRUE(res.error.empty()) << spec.name << ": " << res.error;
    ASSERT_NE(res.trace_hash, 0u) << spec.name;
    hashes.push_back(res.trace_hash);
  }

  if (print) {
    std::fprintf(stderr, "golden matrix hashes:\n");
    for (std::size_t s = 0; s < scs.size(); ++s) {
      std::fprintf(stderr, "  {0x%016llxULL, 0x%016llxULL, 0x%016llxULL},\n",
                    static_cast<unsigned long long>(hashes[s * 3 + 0]),
                    static_cast<unsigned long long>(hashes[s * 3 + 1]),
                    static_cast<unsigned long long>(hashes[s * 3 + 2]));
    }
  }

  // Polled path must be byte-identical per cell.
  for (std::size_t i = 0; i < polled.size(); ++i) {
    const RunResult res = execute_run(polled[i]);
    ASSERT_TRUE(res.error.empty()) << polled[i].name << ": " << res.error;
    EXPECT_EQ(res.trace_hash, hashes[i])
        << polled[i].name << ": polled trace diverged from compiled";
  }

  // The pool must reproduce the serial hashes at every jobs setting.
  for (const unsigned jobs : {1u, 2u, 4u}) {
    const RunPoolReport report = run_pool(compiled, jobs);
    ASSERT_EQ(report.results.size(), compiled.size());
    for (std::size_t i = 0; i < compiled.size(); ++i) {
      EXPECT_EQ(report.results[i].trace_hash, hashes[i])
          << compiled[i].name << " at jobs=" << jobs;
    }
  }

  if (print) {
    GTEST_SKIP() << "AQT_PRINT_GOLDEN set: committed-constant check skipped";
  }

  // And all of it must match the committed constants.
  for (std::size_t s = 0; s < scs.size(); ++s) {
    for (std::size_t p = 0; p < 3; ++p) {
      EXPECT_EQ(hashes[s * 3 + p], kGolden[s][p])
          << scs[s].name << "/" << kProtocols[p]
          << ": trace hash moved — see the regeneration note in this file's "
             "header before updating the table";
    }
  }
}

}  // namespace
}  // namespace aqt
