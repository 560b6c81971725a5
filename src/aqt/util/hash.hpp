// The repo's one FNV-1a 64: the run-trace content hash, the checkpoint
// graph checksum, the audit baseline's line hashes, and the constants the
// route table mixes with — plus the one hex spelling every persisted hash
// uses.
//
// Header-inline on purpose: the trace hash runs over every record of every
// run, so update() must inline into the writer's hot path.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

namespace aqt {

/// FNV-1a 64 parameters (the standard offset basis and prime).
inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// Streaming FNV-1a 64 over bytes.
class Fnv1a {
 public:
  Fnv1a() = default;
  /// Resumes hashing mid-stream from a previously saved value() — the
  /// mechanism that lets a checkpointed run's trace hash continue exactly
  /// where the interrupted segment stopped (runner/job_checkpoint.hpp).
  explicit Fnv1a(std::uint64_t resume_state) : hash_(resume_state) {}

  void update(std::string_view bytes) {
    for (const char c : bytes) update_byte(static_cast<unsigned char>(c));
  }
  void update_byte(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= kFnv1aPrime;
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnv1aOffsetBasis;
};

/// FNV-1a 64 of `bytes` in one call.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes) {
  Fnv1a h;
  h.update(bytes);
  return h.value();
}

/// A 64-bit hash as 16 lowercase hex digits ("%016llx") — the spelling of
/// every hash in traces, certificates, baselines and results.
[[nodiscard]] inline std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Reads back 1..16 lowercase hex digits (hash_hex's alphabet); nullopt on
/// anything else.
[[nodiscard]] inline std::optional<std::uint64_t> parse_hash_hex(
    std::string_view hex) {
  if (hex.empty() || hex.size() > 16) return std::nullopt;
  std::uint64_t h = 0;
  for (const char c : hex) {
    unsigned digit = 0;
    if (c >= '0' && c <= '9')
      digit = static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f')
      digit = static_cast<unsigned>(c - 'a' + 10);
    else
      return std::nullopt;
    h = (h << 4U) | digit;
  }
  return h;
}

}  // namespace aqt
