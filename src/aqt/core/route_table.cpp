#include "aqt/core/route_table.hpp"

#include <algorithm>
#include <cstring>

#include "aqt/util/hash.hpp"

namespace aqt {
namespace {

/// FNV-1a shaped, but one whole EdgeId per round rather than one byte:
/// the hash is internal to the table, so speed beats byte compatibility.
std::uint64_t hash_route(RouteSpan route) {
  std::uint64_t h = kFnv1aOffsetBasis;
  for (const EdgeId e : route) {
    h ^= e;
    h *= kFnv1aPrime;
  }
  // Fold in the length so prefixes hash apart even under weak mixing.
  h ^= route.size();
  h *= kFnv1aPrime;
  return h;
}

/// The ref in `bucket` with `route`'s contents, or null.
const RouteRef* match(const std::vector<RouteRef>& bucket, RouteSpan route) {
  for (const RouteRef& ref : bucket) {
    if (ref.len == route.size() &&
        std::equal(ref.begin(), ref.end(), route.begin()))
      return &ref;
  }
  return nullptr;
}

}  // namespace

RouteRef RouteTable::find(RouteSpan route) const {
  if (route.empty()) return RouteRef{};
  const auto it = dedup_.find(hash_route(route));
  if (it == dedup_.end()) return RouteRef{};
  const RouteRef* ref = match(it->second, route);
  return ref != nullptr ? *ref : RouteRef{};
}

RouteRef RouteTable::intern(RouteSpan route) {
  if (route.empty()) return RouteRef{};
  std::vector<RouteRef>& bucket = dedup_[hash_route(route)];
  if (const RouteRef* known = match(bucket, route)) return *known;
  const RouteRef ref{append(route), static_cast<std::uint32_t>(route.size())};
  bucket.push_back(ref);
  ++count_;
  return ref;
}

const EdgeId* RouteTable::append(RouteSpan route) {
  if (route.size() > kChunkEdges) {
    // Oversized route: dedicated chunk (still stable storage; the regular
    // chunk cursor is untouched so pool packing stays dense).
    chunks_.push_back(std::make_unique<EdgeId[]>(route.size()));
    pool_bytes_ += route.size() * sizeof(EdgeId);
    EdgeId* out = chunks_.back().get();
    std::memcpy(out, route.data(), route.size() * sizeof(EdgeId));
    // Keep the *current* fill chunk last so chunk_used_ keeps addressing it.
    if (chunks_.size() >= 2)
      std::swap(chunks_[chunks_.size() - 2], chunks_.back());
    else
      chunk_used_ = kChunkEdges;  // No fill chunk yet; force a fresh one.
    return out;
  }
  if (chunk_used_ + route.size() > kChunkEdges) {
    chunks_.push_back(std::make_unique<EdgeId[]>(kChunkEdges));
    pool_bytes_ += kChunkEdges * sizeof(EdgeId);
    chunk_used_ = 0;
  }
  EdgeId* out = chunks_.back().get() + chunk_used_;
  std::memcpy(out, route.data(), route.size() * sizeof(EdgeId));
  chunk_used_ += route.size();
  return out;
}

}  // namespace aqt
