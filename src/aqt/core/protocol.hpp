// Greedy queuing protocols (paper §2) as priority-key assignments.
//
// Every protocol studied in the adversarial queuing literature that this
// library covers can be expressed as: when a packet arrives at a buffer, it
// receives a priority key; the buffer always forwards the packet with the
// smallest key.  The key is *static while the packet sits in that buffer*
// (remaining-route lengths only change on hops), which lets buffers be
// binary heaps and makes the engine protocol-agnostic and O(log n).  The
// KeyRule also picks the buffer representation (Buffer::layout_for): FIFO's
// keys only grow and LIFO's only shrink, so their buffers are key-sorted
// rings with O(1) push and pop.
//
// Two classification predicates from the paper are exposed:
//  * historic (Definition 3.1): scheduling is independent of the remaining
//    route beyond the next edge.  Rerouting (Lemma 3.3) is sound only for
//    historic policies, and the engine enforces this.
//  * time-priority (Definition 4.2): a packet arriving at a buffer at time t
//    has priority over every packet injected after t.  Time-priority
//    protocols enjoy the stronger 1/d stability threshold (Theorem 4.3).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "aqt/core/packet.hpp"
#include "aqt/core/types.hpp"
#include "aqt/util/rng.hpp"

namespace aqt {

/// Buffer priority: lexicographic (k1, k2), then global arrival sequence,
/// then packet id.  Smaller sorts first (= forwarded first).
struct PriorityKey {
  std::int64_t k1 = 0;
  std::int64_t k2 = 0;
};

/// Closed-form key rules the engine can compute inline, skipping the
/// virtual `key()` dispatch on its hottest path (one call per enqueue).
/// A protocol returning anything but kCustom asserts that its key() is
/// *exactly* the listed formula; Engine::enqueue holds the other half of
/// the contract (a switch mirroring the formulas below).  kFifo and kLifo
/// also select ring buffers; a ring serves any key order correctly, but
/// only monotone keys are O(1).
enum class KeyRule : std::uint8_t {
  kCustom,  ///< Call the virtual key().
  kFifo,    ///< {seq, 0}
  kLifo,    ///< {-seq, 0}
  kLis,     ///< {inject_time, seq}
  kNis,     ///< {-inject_time, -seq}
  kFtg,     ///< {-remaining, seq}
  kNtg,     ///< {remaining, seq}
  kFfs,     ///< {-traversed, seq}
  kNts,     ///< {traversed, seq}
};

/// A greedy queuing policy.
class Protocol {
 public:
  virtual ~Protocol() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Priority key assigned when `p` arrives at the buffer of its current
  /// edge at step `arrival` with global arrival sequence `seq`.
  [[nodiscard]] virtual PriorityKey key(const Packet& p, Time arrival,
                                        std::uint64_t seq) const = 0;

  /// Inline-dispatch hint; kCustom (the default) always works and means
  /// every key goes through the virtual call.
  [[nodiscard]] virtual KeyRule key_rule() const { return KeyRule::kCustom; }

  /// Definition 3.1 (decisions ignore the route beyond the next edge).
  [[nodiscard]] virtual bool is_historic() const = 0;

  /// Definition 4.2 (arrival at t beats any packet injected after t).
  [[nodiscard]] virtual bool is_time_priority() const = 0;
};

/// First-in-first-out: forward in order of arrival at this buffer.
class FifoProtocol final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "FIFO"; }
  [[nodiscard]] PriorityKey key(const Packet&, Time,
                                std::uint64_t seq) const override {
    return {static_cast<std::int64_t>(seq), 0};
  }
  [[nodiscard]] KeyRule key_rule() const override {
    return KeyRule::kFifo;
  }
  [[nodiscard]] bool is_historic() const override { return true; }
  [[nodiscard]] bool is_time_priority() const override { return true; }
};

/// Last-in-first-out: forward the most recent arrival.
class LifoProtocol final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "LIFO"; }
  [[nodiscard]] PriorityKey key(const Packet&, Time,
                                std::uint64_t seq) const override {
    return {-static_cast<std::int64_t>(seq), 0};
  }
  [[nodiscard]] KeyRule key_rule() const override {
    return KeyRule::kLifo;
  }
  [[nodiscard]] bool is_historic() const override { return true; }
  [[nodiscard]] bool is_time_priority() const override { return false; }
};

/// Longest-in-system: forward the packet with the earliest injection time.
class LisProtocol final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "LIS"; }
  [[nodiscard]] PriorityKey key(const Packet& p, Time,
                                std::uint64_t seq) const override {
    return {p.inject_time, static_cast<std::int64_t>(seq)};
  }
  [[nodiscard]] KeyRule key_rule() const override {
    return KeyRule::kLis;
  }
  [[nodiscard]] bool is_historic() const override { return true; }
  [[nodiscard]] bool is_time_priority() const override { return true; }
};

/// Newest-in-system (a.k.a. shortest-in-system): latest injection first.
class NisProtocol final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "NIS"; }
  [[nodiscard]] PriorityKey key(const Packet& p, Time,
                                std::uint64_t seq) const override {
    return {-p.inject_time, -static_cast<std::int64_t>(seq)};
  }
  [[nodiscard]] KeyRule key_rule() const override {
    return KeyRule::kNis;
  }
  [[nodiscard]] bool is_historic() const override { return true; }
  [[nodiscard]] bool is_time_priority() const override { return false; }
};

/// Furthest-to-go: most remaining edges first.  Not historic.
class FtgProtocol final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "FTG"; }
  [[nodiscard]] PriorityKey key(const Packet& p, Time,
                                std::uint64_t seq) const override {
    return {-static_cast<std::int64_t>(p.remaining()),
            static_cast<std::int64_t>(seq)};
  }
  [[nodiscard]] KeyRule key_rule() const override {
    return KeyRule::kFtg;
  }
  [[nodiscard]] bool is_historic() const override { return false; }
  [[nodiscard]] bool is_time_priority() const override { return false; }
};

/// Nearest-to-go: fewest remaining edges first.  Not historic.
class NtgProtocol final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "NTG"; }
  [[nodiscard]] PriorityKey key(const Packet& p, Time,
                                std::uint64_t seq) const override {
    return {static_cast<std::int64_t>(p.remaining()),
            static_cast<std::int64_t>(seq)};
  }
  [[nodiscard]] KeyRule key_rule() const override {
    return KeyRule::kNtg;
  }
  [[nodiscard]] bool is_historic() const override { return false; }
  [[nodiscard]] bool is_time_priority() const override { return false; }
};

/// Furthest-from-source: most traversed edges first.
class FfsProtocol final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "FFS"; }
  [[nodiscard]] PriorityKey key(const Packet& p, Time,
                                std::uint64_t seq) const override {
    return {-static_cast<std::int64_t>(p.traversed()),
            static_cast<std::int64_t>(seq)};
  }
  [[nodiscard]] KeyRule key_rule() const override {
    return KeyRule::kFfs;
  }
  [[nodiscard]] bool is_historic() const override { return true; }
  [[nodiscard]] bool is_time_priority() const override { return false; }
};

/// Nearest-to-source: fewest traversed edges first.
class NtsProtocol final : public Protocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "NTS"; }
  [[nodiscard]] PriorityKey key(const Packet& p, Time,
                                std::uint64_t seq) const override {
    return {static_cast<std::int64_t>(p.traversed()),
            static_cast<std::int64_t>(seq)};
  }
  [[nodiscard]] KeyRule key_rule() const override {
    return KeyRule::kNts;
  }
  [[nodiscard]] bool is_historic() const override { return true; }
  [[nodiscard]] bool is_time_priority() const override { return false; }
};

/// Uniform random choice among waiting packets (deterministic given seed).
class RandomProtocol final : public Protocol {
 public:
  explicit RandomProtocol(std::uint64_t seed) : rng_(seed) {}
  [[nodiscard]] std::string_view name() const override { return "RANDOM"; }
  [[nodiscard]] PriorityKey key(const Packet&, Time,
                                std::uint64_t) const override {
    return {static_cast<std::int64_t>(rng_.next() >> 1), 0};
  }
  [[nodiscard]] bool is_historic() const override { return true; }
  [[nodiscard]] bool is_time_priority() const override { return false; }

 private:
  mutable Rng rng_;
};

/// User-defined policy from a key function — the extension point for
/// protocols outside the built-in zoo:
///
///   LambdaProtocol oldest_first("OLDEST", /*historic=*/true,
///                               /*time_priority=*/true,
///                               [](const Packet& p, Time, std::uint64_t s) {
///                                 return PriorityKey{p.inject_time,
///                                                    (std::int64_t)s};
///                               });
///
/// The classification flags are declarations the caller is responsible
/// for: claiming historic while keying on the remaining route would let
/// reroutes corrupt buffer order.
class LambdaProtocol final : public Protocol {
 public:
  using KeyFn =
      std::function<PriorityKey(const Packet&, Time, std::uint64_t)>;

  LambdaProtocol(std::string name, bool historic, bool time_priority,
                 KeyFn key);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] PriorityKey key(const Packet& p, Time arrival,
                                std::uint64_t seq) const override {
    return key_(p, arrival, seq);
  }
  [[nodiscard]] bool is_historic() const override { return historic_; }
  [[nodiscard]] bool is_time_priority() const override {
    return time_priority_;
  }

 private:
  std::string name_;
  bool historic_;
  bool time_priority_;
  KeyFn key_;
};

/// Factory: FIFO, LIFO, LIS, NIS, SIS (= NIS), FTG, NTG, FFS, NTS, RANDOM.
/// Throws PreconditionError for unknown names.
std::unique_ptr<Protocol> make_protocol(std::string_view name,
                                        std::uint64_t seed = 0);

/// Names accepted by make_protocol, in canonical order.
const std::vector<std::string>& protocol_names();

}  // namespace aqt
