// Interned route storage: deduplicated routes in a chunked flat pool.
//
// Packets used to own their routes as individual std::vector<EdgeId>, which
// made every injection copy its route onto the heap and every reroute
// rebuild one.  The RouteTable replaces that with interning: a route is
// written once into a chunked EdgeId pool and every packet that travels it
// holds only a (pointer, length) RouteRef.  Chunks are fixed-size and never
// reallocate, so refs stay valid for the table's lifetime.
//
// Deduplication is content-hash based (FNV-1a over the edge ids): injecting
// the same route twice — the common case for scripted, stream, and bucket
// adversaries, and for the repeated paths of stochastic workloads on small
// graphs — costs one hash probe and zero pool bytes.  Reroutes splice
// copy-on-write: the spliced route is interned as a whole, leaving every
// other packet on the original route untouched.
//
// The pool only grows (absorbed packets' routes stay interned so later
// duplicates keep hitting), bounded by the number of *distinct* routes seen;
// `pool_bytes()` is exported as the `aqt_route_pool_bytes` gauge so growth
// is observable.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "aqt/core/types.hpp"

namespace aqt {

/// Deduplicating, stable-storage route interner.
class RouteTable {
 public:
  /// Interns `route`, returning a stable ref.  Identical contents return
  /// the same ref (pointer equality included).  Empty routes intern to a
  /// null ref.
  RouteRef intern(RouteSpan route);

  /// The interned ref with `route`'s contents, or a null ref when `route`
  /// is empty or not interned yet.  Never adds an entry.
  [[nodiscard]] RouteRef find(RouteSpan route) const;

  /// Distinct routes interned so far.
  [[nodiscard]] std::uint64_t route_count() const { return count_; }

  /// Bytes of pool storage held (capacity, not just used edges).
  [[nodiscard]] std::uint64_t pool_bytes() const { return pool_bytes_; }

 private:
  // 16k edges per chunk: large enough that chunk overhead is noise, small
  // enough that a run with few distinct routes stays cache-resident.
  static constexpr std::size_t kChunkEdges = std::size_t{1} << 14;

  const EdgeId* append(RouteSpan route);

  std::vector<std::unique_ptr<EdgeId[]>> chunks_;
  std::size_t chunk_used_ = kChunkEdges;  ///< Forces a first-chunk alloc.
  // Hash -> interned refs with that hash (collision chain; scanned linearly,
  // compared by content).  Used for point lookups only, never iterated.
  std::unordered_map<std::uint64_t, std::vector<RouteRef>> dedup_;
  std::uint64_t count_ = 0;
  std::uint64_t pool_bytes_ = 0;
};

}  // namespace aqt
