// The hardened JSON reader/writer under the serve wire protocol: strict
// parsing of untrusted input, canonical byte-stable emission.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "aqt/util/json.hpp"
#include "aqt/util/check.hpp"

namespace aqt {
namespace serve {
namespace {

TEST(ServeJson, ParsesScalarsAndContainers) {
  const JsonValue doc = parse_json(
      R"({"i": 42, "f": 1.5, "s": "hi", "b": true, "n": null,)"
      R"( "a": [1, 2, 3], "o": {"k": "v"}})",
      "test");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("i")->as_int(), 42);
  EXPECT_DOUBLE_EQ(doc.find("f")->as_double(), 1.5);
  EXPECT_EQ(doc.find("s")->as_string(), "hi");
  EXPECT_TRUE(doc.find("b")->as_bool());
  EXPECT_TRUE(doc.find("n")->is_null());
  ASSERT_EQ(doc.find("a")->items().size(), 3u);
  EXPECT_EQ(doc.find("a")->items()[2].as_int(), 3);
  EXPECT_EQ(doc.find("o")->find("k")->as_string(), "v");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(ServeJson, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("", "t"), PreconditionError);
  EXPECT_THROW(parse_json("{", "t"), PreconditionError);
  EXPECT_THROW(parse_json("{'k': 1}", "t"), PreconditionError);
  EXPECT_THROW(parse_json("[1, 2,]", "t"), PreconditionError);
  EXPECT_THROW(parse_json("nul", "t"), PreconditionError);
  // Exactly one document: trailing garbage is an error, not ignored.
  EXPECT_THROW(parse_json("{} {}", "t"), PreconditionError);
  EXPECT_THROW(parse_json("1 2", "t"), PreconditionError);
}

TEST(ServeJson, RejectsDuplicateKeys) {
  EXPECT_THROW(parse_json(R"({"k": 1, "k": 2})", "t"), PreconditionError);
}

TEST(ServeJson, BoundsDepthAndSize) {
  std::string deep;
  for (std::size_t i = 0; i < kMaxJsonDepth + 1; ++i) deep += "[";
  for (std::size_t i = 0; i < kMaxJsonDepth + 1; ++i) deep += "]";
  EXPECT_THROW(parse_json(deep, "t"), PreconditionError);

  std::string big(kMaxJsonBytes + 1, ' ');
  big[0] = '1';
  EXPECT_THROW(parse_json(big, "t"), PreconditionError);
}

TEST(ServeJson, WriteIsCanonicalAndRoundTrips) {
  JsonValue doc = JsonValue::make_object();
  doc.set("b", JsonValue::make_int(2));
  doc.set("a", JsonValue::make_int(1));  // Insertion order, not sorted.
  JsonValue arr = JsonValue::make_array();
  arr.push_back(JsonValue::make_string("x\n\"y\""));
  arr.push_back(JsonValue::make_bool(false));
  doc.set("arr", std::move(arr));

  const std::string bytes = write_json(doc);
  EXPECT_EQ(bytes, R"({"b":2,"a":1,"arr":["x\n\"y\"",false]})");
  // parse(write(x)) re-emits the identical bytes.
  EXPECT_EQ(write_json(parse_json(bytes, "t")), bytes);
}

TEST(ServeJson, SetReplacesInPlace) {
  JsonValue doc = JsonValue::make_object();
  doc.set("first", JsonValue::make_int(1));
  doc.set("second", JsonValue::make_int(2));
  doc.set("first", JsonValue::make_int(3));  // Replace keeps position.
  EXPECT_EQ(write_json(doc), R"({"first":3,"second":2})");
}

TEST(ServeJson, EscapesControlBytes) {
  std::string raw = "a";
  raw += '\x01';  // Spelled out so the 'b' next door is not hex-swallowed.
  raw += "b\tc";
  JsonValue doc = JsonValue::make_string(raw);
  EXPECT_EQ(write_json(doc), "\"a\\u0001b\\tc\"");
}

TEST(ServeJson, NegativeZeroWritesAsZeroSoWritingIsAFixedPoint) {
  // "-0" would read back as the integer 0 and re-write as "0".
  const JsonValue neg_zero = JsonValue::make_double(-0.0);
  EXPECT_EQ(write_json(neg_zero), "0");
  const std::string once = write_json(parse_json("[-0.0,0.5,-0,1e2]", "t"));
  EXPECT_EQ(once, "[0,0.5,0,100]");
  EXPECT_EQ(write_json(parse_json(once, "t")), once);
}

TEST(ServeJson, SubnormalsReadBackAndUnderflowReadsAsZero) {
  // The smallest subnormal as the metrics exporter's "%.10g" spells it.
  const double tiny = std::numeric_limits<double>::denorm_min();
  char spelled[64];
  std::snprintf(spelled, sizeof spelled, "%.10g", tiny);
  ASSERT_STREQ(spelled, "4.940656458e-324");
  EXPECT_EQ(parse_json(spelled, "t").as_double(), tiny);
  EXPECT_EQ(parse_json("2.2250738585072014e-308", "t").as_double(),
            std::numeric_limits<double>::min());

  const JsonValue under = parse_json("[1e-400, -1e-400, 0.0001e-320]", "t");
  EXPECT_EQ(under.items()[0].as_double(), 0.0);
  EXPECT_EQ(under.items()[1].as_double(), 0.0);
  EXPECT_TRUE(std::signbit(under.items()[1].as_double()));
  EXPECT_EQ(under.items()[2].as_double(), 0.0);

  for (const char* over : {"1e999", "-1e999", "0.1e310", "1000e306"})
    EXPECT_THROW(parse_json(over, "t"), PreconditionError) << over;
}

TEST(ServeJson, IntegersSurviveExactly) {
  const JsonValue doc =
      parse_json("[9223372036854775807, -9223372036854775808]", "t");
  EXPECT_EQ(doc.items()[0].as_int(), INT64_MAX);
  EXPECT_EQ(doc.items()[1].as_int(), INT64_MIN);
  EXPECT_EQ(write_json(doc), "[9223372036854775807,-9223372036854775808]");
}

}  // namespace
}  // namespace serve
}  // namespace aqt
