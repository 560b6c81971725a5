// ThreadSanitizer race probe.
//
// Compiled into the `aqt-race-probe` target, which defines
// AQT_RACE_PROBE_RACE, so that ThreadSanitizer has a known data race to
// report.  The CI tsan leg runs the binary and fails when TSan does *not*
// report it: a clean exit means the sanitizer leg has stopped watching.
//
// Without the macro (any build but the probe target) the race is compiled
// out and main returns 0.
#include <thread>
#include <vector>

namespace aqt_race_probe {

// Namespace-scope, non-atomic, never guarded: the contested cell.
int g_total = 0;

#ifdef AQT_RACE_PROBE_RACE

// Two writers hammer g_total with no synchronization.  Under TSan this
// reports a data race on the `g_total += 1` line.
void hammer(int iterations) {
  std::vector<std::thread> pool;
  for (int w = 0; w < 2; ++w) {
    pool.emplace_back([iterations] {
      for (int i = 0; i < iterations; ++i) g_total += 1;  // RACE-SITE
    });
  }
  for (std::thread& t : pool) t.join();
}

#endif  // AQT_RACE_PROBE_RACE

}  // namespace aqt_race_probe

#ifdef AQT_RACE_PROBE_RACE
int main() {
  aqt_race_probe::hammer(200000);
  return aqt_race_probe::g_total > 0 ? 0 : 1;
}
#else
int main() { return 0; }
#endif
