// MetricRegistry: a central, named collection of counters, gauges, and
// histograms — the observability layer's single source of truth.
//
// The engine's in-memory Metrics (core/metrics.hpp) answers the paper's
// stability question for one run; the registry generalizes that into a
// tool-agnostic snapshot every binary (aqt-sim, aqt-verify, aqt-fuzz,
// examples, benches) can populate and every exporter
// (export.hpp: Prometheus text exposition, JSON snapshot, CSV) can walk, so
// the whole repo emits one schema.
//
// Semantics:
//  * Names follow Prometheus conventions: [a-z_][a-z0-9_]*, with unit
//    suffixes (_total for counters, _steps / _packets / _seconds for
//    gauges and histograms).
//  * A metric family is (name, help, type); cells within a family are
//    distinguished by a single optional label value (e.g. edge="h0_1",
//    phase="transmit").  Registering the same (name, label) again returns
//    the existing cell; re-registering a name with a different type is a
//    precondition error.
//  * Counters are monotone non-negative integers; gauges are doubles that
//    may move freely; histograms are the shared log-bucket
//    util/histogram.hpp.
//  * Iteration order (families, and cells within a family) is registration
//    order, so exports are deterministic and golden-testable.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "aqt/util/histogram.hpp"

namespace aqt::obs {

/// Monotone event count.
class Counter {
 public:
  // aqt-audit: allow(AUD005) -- integer counter: uint64 addition is exact
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  /// Sets an absolute value; must not go backwards (counters are monotone).
  void set(std::uint64_t value);
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time measurement.
class Gauge {
 public:
  void set(double value) { value_ = value; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

const char* to_string(MetricType type);

class MetricRegistry {
 public:
  /// One labeled instance within a family.  Only the member matching the
  /// family type is meaningful.
  struct Cell {
    std::string label;  ///< Label *value*; empty for unlabeled metrics.
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  struct Family {
    std::string name;
    std::string help;
    std::string label_key;  ///< Label *name* (e.g. "edge"); may be empty.
    MetricType type = MetricType::kCounter;
    std::deque<Cell> cells;  ///< Registration order.
  };

  /// Registers (or finds) a counter/gauge/histogram cell.  `label_key` and
  /// `label` must both be given or both be empty; all cells of one family
  /// share the same label key.  Throws PreconditionError on an invalid name
  /// or a type/label-key mismatch with a previous registration.  Returned
  /// references stay valid for the registry's lifetime (deque storage).
  Counter& counter(const std::string& name, const std::string& help,
                   const std::string& label_key = "",
                   const std::string& label = "");
  Gauge& gauge(const std::string& name, const std::string& help,
               const std::string& label_key = "",
               const std::string& label = "");
  Histogram& histogram(const std::string& name, const std::string& help,
                       const std::string& label_key = "",
                       const std::string& label = "");

  /// All families in registration order (for exporters).
  [[nodiscard]] const std::deque<Family>& families() const {
    return families_;
  }

  /// Lookup without registering; nullptr when absent.
  [[nodiscard]] const Family* find(const std::string& name) const;

  /// Folds another registry into this one, family by family and cell by
  /// cell (matched by name/label; absent ones are created in `other`'s
  /// registration order).  Counters add, gauges keep the maximum (every
  /// gauge in this codebase is a peak or a 0/1 flag), histograms merge
  /// bucket-wise.  Merging is commutative over integer-valued inputs, so a
  /// run pool can merge its per-worker registries after the barrier and get
  /// the same snapshot regardless of which worker ran which cell.  Throws
  /// PreconditionError on a type or label-key mismatch.
  void merge_from(const MetricRegistry& other);

 private:
  Cell& cell(const std::string& name, const std::string& help,
             MetricType type, const std::string& label_key,
             const std::string& label);

  std::deque<Family> families_;
};

}  // namespace aqt::obs
