// The one FNV-1a 64 (util/hash.hpp): standard test vectors, mid-stream
// resume, and the 16-digit hex spelling every persisted hash uses.
#include "aqt/util/hash.hpp"

#include <gtest/gtest.h>

#include <string>

namespace aqt {
namespace {

TEST(Fnv1a, MatchesTheStandardTestVectors) {
  EXPECT_EQ(kFnv1aOffsetBasis, 14695981039346656037ULL);
  EXPECT_EQ(kFnv1aPrime, 1099511628211ULL);
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, ResumesMidStreamFromASavedValue) {
  Fnv1a head;
  head.update("foo");
  Fnv1a tail(head.value());
  tail.update("bar");
  EXPECT_EQ(tail.value(), fnv1a("foobar"));
  Fnv1a bytes;
  for (const char c : std::string("foobar"))
    bytes.update_byte(static_cast<unsigned char>(c));
  EXPECT_EQ(bytes.value(), fnv1a("foobar"));
}

TEST(HashHex, IsSixteenLowercaseDigitsAndReadsBack) {
  EXPECT_EQ(hash_hex(0), "0000000000000000");
  EXPECT_EQ(hash_hex(0xaf63dc4c8601ec8cULL), "af63dc4c8601ec8c");
  EXPECT_EQ(hash_hex(~0ULL), "ffffffffffffffff");
  for (const std::uint64_t h : {0ULL, 1ULL, 0x00c0ffee00000001ULL, ~0ULL})
    EXPECT_EQ(parse_hash_hex(hash_hex(h)), h);
  EXPECT_EQ(parse_hash_hex("1f"), 0x1fULL);
}

TEST(HashHex, ParseRejectsAnythingButOneToSixteenLowercaseDigits) {
  for (const char* bad :
       {"", "00000000000000000", "ABCDEF", "xyz", "12 34", "-1", "0x1f"})
    EXPECT_FALSE(parse_hash_hex(bad).has_value()) << bad;
}

}  // namespace
}  // namespace aqt
