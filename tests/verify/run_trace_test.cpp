// Run-trace format tests: writer/parser round trip, content-hash and
// byte-level determinism, and hardened rejection of malformed, truncated,
// or hostile input (the parser must throw PreconditionError, never abort
// or balloon memory).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "aqt/trace/run_trace.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/hash.hpp"
#include "golden.hpp"

namespace aqt {
namespace {

using verify_testing::fifo_pair_trace;
using verify_testing::parse_text;
using verify_testing::replace_first;
using verify_testing::stable_ring_trace;

TEST(RunTrace, WriterParserRoundTrip) {
  const std::string text = stable_ring_trace();
  const RunTrace trace = parse_text(text);

  EXPECT_EQ(trace.version, kRunTraceVersion);
  EXPECT_EQ(trace.meta.protocol, "FIFO");
  ASSERT_TRUE(trace.meta.window_w.has_value());
  EXPECT_EQ(*trace.meta.window_w, 6);
  ASSERT_TRUE(trace.meta.window_r.has_value());
  EXPECT_EQ(trace.meta.window_r->str(), "1/3");
  EXPECT_FALSE(trace.meta.rate_r.has_value());

  EXPECT_EQ(trace.node_names.size(), 6u);
  EXPECT_EQ(trace.edges.size(), 6u);
  EXPECT_FALSE(trace.records.empty());
  EXPECT_EQ(trace.injected, 4u);
  EXPECT_EQ(trace.absorbed, 4u);
  EXPECT_GE(trace.steps, 10);
  EXPECT_EQ(trace.declared_hash, trace.computed_hash);
}

TEST(RunTrace, RecordKindsAreAllExercised) {
  const RunTrace trace = parse_text(stable_ring_trace());
  bool saw_step = false, saw_send = false, saw_absorb = false,
       saw_inject = false, saw_queue = false;
  for (const RunRecord& rec : trace.records) {
    switch (rec.kind) {
      case RunRecord::Kind::kStep: saw_step = true; break;
      case RunRecord::Kind::kSend: saw_send = true; break;
      case RunRecord::Kind::kAbsorb: saw_absorb = true; break;
      case RunRecord::Kind::kInject: saw_inject = true; break;
      case RunRecord::Kind::kQueue: saw_queue = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_step && saw_send && saw_absorb && saw_inject && saw_queue);
}

TEST(RunTrace, RecordingIsByteDeterministic) {
  const std::string first = stable_ring_trace();
  const std::string second = stable_ring_trace();
  EXPECT_EQ(first, second);
  EXPECT_EQ(parse_text(first).computed_hash, parse_text(second).computed_hash);
}

TEST(RunTrace, TamperedHashParsesWithMismatch) {
  // A wrong footer hash is a *verifier* finding, not a parse failure, so
  // tampering is diagnosed instead of hidden behind an I/O error.
  std::string text = stable_ring_trace();
  const std::size_t pos = text.rfind("\nhash ");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t digit = text.size() - 2;  // last hex digit before '\n'
  text[digit] = text[digit] == '0' ? '1' : '0';
  const RunTrace trace = parse_text(text);
  EXPECT_NE(trace.declared_hash, trace.computed_hash);
}

TEST(RunTrace, EveryLinePrefixTruncationIsRejected) {
  const std::string text = fifo_pair_trace();
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  ASSERT_GT(lines.size(), 10u);
  for (std::size_t keep = 0; keep < lines.size(); ++keep) {
    std::string prefix;
    for (std::size_t i = 0; i < keep; ++i) prefix += lines[i] + "\n";
    EXPECT_THROW(parse_text(prefix), PreconditionError)
        << "prefix of " << keep << " lines parsed";
  }
}

TEST(RunTrace, MidLineTruncationIsRejected) {
  const std::string text = fifo_pair_trace();
  for (const std::size_t cut : {text.size() / 4, text.size() / 2,
                                text.size() - 3}) {
    EXPECT_THROW(parse_text(text.substr(0, cut)), PreconditionError);
  }
}

TEST(RunTrace, MalformedInputIsRejected) {
  const std::string good = fifo_pair_trace();
  const std::vector<std::pair<std::string, std::string>> tampers = {
      {"aqt-run-trace 1", "aqt-rum-trace 1"},   // bad magic
      {"aqt-run-trace 1", "aqt-run-trace 99"},  // unsupported version
      {"T 1\n", "T -1\n"},                      // negative step time
      {"T 2\n", "Z 2\n"},                       // unknown record kind
      {"S 0 0\n", "S 99 0\n"},                  // edge id out of range
      {"S 0 0\n", "S 0 18446744073709551616\n"},  // uint64 overflow
      {"S 0 0\n", "S 0\n"},                     // missing field
      {"J 0 0 0 1\n", "J 0 0\n"},               // injection without route
      {"edges 3", "edges 4"},                   // edge-table count mismatch
      {"hash ", "hash xyz-not-hex"},            // malformed footer hash
  };
  for (const auto& [from, to] : tampers) {
    EXPECT_THROW(parse_text(replace_first(good, from, to)), PreconditionError)
        << "accepted tamper: " << from << " -> " << to;
  }
}

TEST(RunTrace, HostileHeaderCountCannotBalloonMemory) {
  // A tampered count must fail on the missing entry lines; the clamped
  // preallocation means this returns promptly instead of OOMing first.
  const std::string hostile = replace_first(
      fifo_pair_trace(), "nodes 4", "nodes 4000000000");
  EXPECT_THROW(parse_text(hostile), PreconditionError);
}

// Every record kind at its numeric extremes, as the ostream writer writes
// it.  The long P and J routes (300 edges of up to 10 digits) are longer
// than any fixed line buffer.  The literal was captured from the writer
// that built each line with std::to_string and std::ostringstream, so it
// pins the line bytes, and with them the content hash, across rewrites.
constexpr const char* kAllRecordKinds =
      "aqt-run-trace 1\n"
      "protocol FIFO\n"
      "seed 18446744073709551615\n"
      "digest -\n"
      "window 6 1/3\n"
      "rate 1/2\n"
      "nodes 2\n"
      "node 0 a\n"
      "node 1 b\n"
      "edges 1\n"
      "edge 0 ab 0 1\n"
      "begin\n"
      "P 18446744073709551615 18446744073709551615 0\n"
      "P 1 0 0 14316557 28633114 42949671 57266228 71582785 85899342"
      " 100215899 114532456 128849013 143165570 157482127 171798684"
      " 186115241 200431798 214748355 229064912 243381469 257698026"
      " 272014583 286331140 300647697 314964254 329280811 343597368"
      " 357913925 372230482 386547039 400863596 415180153 429496710"
      " 443813267 458129824 472446381 486762938 501079495 515396052"
      " 529712609 544029166 558345723 572662280 586978837 601295394"
      " 615611951 629928508 644245065 658561622 672878179 687194736"
      " 701511293 715827850 730144407 744460964 758777521 773094078"
      " 787410635 801727192 816043749 830360306 844676863 858993420"
      " 873309977 887626534 901943091 916259648 930576205 944892762"
      " 959209319 973525876 987842433 1002158990 1016475547 1030792104"
      " 1045108661 1059425218 1073741775 1088058332 1102374889 1116691446"
      " 1131008003 1145324560 1159641117 1173957674 1188274231 1202590788"
      " 1216907345 1231223902 1245540459 1259857016 1274173573 1288490130"
      " 1302806687 1317123244 1331439801 1345756358 1360072915 1374389472"
      " 1388706029 1403022586 1417339143 1431655700 1445972257 1460288814"
      " 1474605371 1488921928 1503238485 1517555042 1531871599 1546188156"
      " 1560504713 1574821270 1589137827 1603454384 1617770941 1632087498"
      " 1646404055 1660720612 1675037169 1689353726 1703670283 1717986840"
      " 1732303397 1746619954 1760936511 1775253068 1789569625 1803886182"
      " 1818202739 1832519296 1846835853 1861152410 1875468967 1889785524"
      " 1904102081 1918418638 1932735195 1947051752 1961368309 1975684866"
      " 1990001423 2004317980 2018634537 2032951094 2047267651 2061584208"
      " 2075900765 2090217322 2104533879 2118850436 2133166993 2147483550"
      " 2161800107 2176116664 2190433221 2204749778 2219066335 2233382892"
      " 2247699449 2262016006 2276332563 2290649120 2304965677 2319282234"
      " 2333598791 2347915348 2362231905 2376548462 2390865019 2405181576"
      " 2419498133 2433814690 2448131247 2462447804 2476764361 2491080918"
      " 2505397475 2519714032 2534030589 2548347146 2562663703 2576980260"
      " 2591296817 2605613374 2619929931 2634246488 2648563045 2662879602"
      " 2677196159 2691512716 2705829273 2720145830 2734462387 2748778944"
      " 2763095501 2777412058 2791728615 2806045172 2820361729 2834678286"
      " 2848994843 2863311400 2877627957 2891944514 2906261071 2920577628"
      " 2934894185 2949210742 2963527299 2977843856 2992160413 3006476970"
      " 3020793527 3035110084 3049426641 3063743198 3078059755 3092376312"
      " 3106692869 3121009426 3135325983 3149642540 3163959097 3178275654"
      " 3192592211 3206908768 3221225325 3235541882 3249858439 3264174996"
      " 3278491553 3292808110 3307124667 3321441224 3335757781 3350074338"
      " 3364390895 3378707452 3393024009 3407340566 3421657123 3435973680"
      " 3450290237 3464606794 3478923351 3493239908 3507556465 3521873022"
      " 3536189579 3550506136 3564822693 3579139250 3593455807 3607772364"
      " 3622088921 3636405478 3650722035 3665038592 3679355149 3693671706"
      " 3707988263 3722304820 3736621377 3750937934 3765254491 3779571048"
      " 3793887605 3808204162 3822520719 3836837276 3851153833 3865470390"
      " 3879786947 3894103504 3908420061 3922736618 3937053175 3951369732"
      " 3965686289 3980002846 3994319403 4008635960 4022952517 4037269074"
      " 4051585631 4065902188 4080218745 4094535302 4108851859 4123168416"
      " 4137484973 4151801530 4166118087 4180434644 4194751201 4209067758"
      " 4223384315 4237700872 4252017429 4266333986 4280650543\n"
      "T 1\n"
      "S 0 0\n"
      "S 4294967295 18446744073709551615\n"
      "A 18446744073709551615\n"
      "R 5\n"
      "R 18446744073709551615 0 4294967295\n"
      "J 7 18446744073709551615 0 14316557 28633114 42949671 57266228"
      " 71582785 85899342 100215899 114532456 128849013 143165570"
      " 157482127 171798684 186115241 200431798 214748355 229064912"
      " 243381469 257698026 272014583 286331140 300647697 314964254"
      " 329280811 343597368 357913925 372230482 386547039 400863596"
      " 415180153 429496710 443813267 458129824 472446381 486762938"
      " 501079495 515396052 529712609 544029166 558345723 572662280"
      " 586978837 601295394 615611951 629928508 644245065 658561622"
      " 672878179 687194736 701511293 715827850 730144407 744460964"
      " 758777521 773094078 787410635 801727192 816043749 830360306"
      " 844676863 858993420 873309977 887626534 901943091 916259648"
      " 930576205 944892762 959209319 973525876 987842433 1002158990"
      " 1016475547 1030792104 1045108661 1059425218 1073741775 1088058332"
      " 1102374889 1116691446 1131008003 1145324560 1159641117 1173957674"
      " 1188274231 1202590788 1216907345 1231223902 1245540459 1259857016"
      " 1274173573 1288490130 1302806687 1317123244 1331439801 1345756358"
      " 1360072915 1374389472 1388706029 1403022586 1417339143 1431655700"
      " 1445972257 1460288814 1474605371 1488921928 1503238485 1517555042"
      " 1531871599 1546188156 1560504713 1574821270 1589137827 1603454384"
      " 1617770941 1632087498 1646404055 1660720612 1675037169 1689353726"
      " 1703670283 1717986840 1732303397 1746619954 1760936511 1775253068"
      " 1789569625 1803886182 1818202739 1832519296 1846835853 1861152410"
      " 1875468967 1889785524 1904102081 1918418638 1932735195 1947051752"
      " 1961368309 1975684866 1990001423 2004317980 2018634537 2032951094"
      " 2047267651 2061584208 2075900765 2090217322 2104533879 2118850436"
      " 2133166993 2147483550 2161800107 2176116664 2190433221 2204749778"
      " 2219066335 2233382892 2247699449 2262016006 2276332563 2290649120"
      " 2304965677 2319282234 2333598791 2347915348 2362231905 2376548462"
      " 2390865019 2405181576 2419498133 2433814690 2448131247 2462447804"
      " 2476764361 2491080918 2505397475 2519714032 2534030589 2548347146"
      " 2562663703 2576980260 2591296817 2605613374 2619929931 2634246488"
      " 2648563045 2662879602 2677196159 2691512716 2705829273 2720145830"
      " 2734462387 2748778944 2763095501 2777412058 2791728615 2806045172"
      " 2820361729 2834678286 2848994843 2863311400 2877627957 2891944514"
      " 2906261071 2920577628 2934894185 2949210742 2963527299 2977843856"
      " 2992160413 3006476970 3020793527 3035110084 3049426641 3063743198"
      " 3078059755 3092376312 3106692869 3121009426 3135325983 3149642540"
      " 3163959097 3178275654 3192592211 3206908768 3221225325 3235541882"
      " 3249858439 3264174996 3278491553 3292808110 3307124667 3321441224"
      " 3335757781 3350074338 3364390895 3378707452 3393024009 3407340566"
      " 3421657123 3435973680 3450290237 3464606794 3478923351 3493239908"
      " 3507556465 3521873022 3536189579 3550506136 3564822693 3579139250"
      " 3593455807 3607772364 3622088921 3636405478 3650722035 3665038592"
      " 3679355149 3693671706 3707988263 3722304820 3736621377 3750937934"
      " 3765254491 3779571048 3793887605 3808204162 3822520719 3836837276"
      " 3851153833 3865470390 3879786947 3894103504 3908420061 3922736618"
      " 3937053175 3951369732 3965686289 3980002846 3994319403 4008635960"
      " 4022952517 4037269074 4051585631 4065902188 4080218745 4094535302"
      " 4108851859 4123168416 4137484973 4151801530 4166118087 4180434644"
      " 4194751201 4209067758 4223384315 4237700872 4252017429 4266333986"
      " 4280650543\n"
      "Q 0 18446744073709551615\n"
      "T 9223372036854775807\n"
      "Q 4294967295 1\n"
      "end 9223372036854775807 18446744073709551615 0\n"
      "hash b7c4e794a988ca72\n";

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
constexpr EdgeId kMaxEdge = std::numeric_limits<EdgeId>::max();

Graph two_node_graph() {
  Graph g;
  g.add_node("a");
  g.add_node("b");
  g.add_edge(0, 1, "ab");
  return g;
}

RunTraceMeta extreme_meta() {
  RunTraceMeta meta;
  meta.protocol = "FIFO";
  meta.seed = kMaxU64;
  meta.window_w = 6;
  meta.window_r = Rat(1, 3);
  meta.rate_r = Rat(1, 2);
  return meta;
}

Route long_route() {
  Route route;
  for (std::uint32_t i = 0; i < 300; ++i) route.push_back(i * 14316557U);
  return route;
}

/// The records of kAllRecordKinds up to the end of step 1.
void write_first_segment(RunTraceWriter& w) {
  w.record_initial(kMaxU64, kMaxU64, Route{0});
  w.record_initial(1, 0, long_route());
  w.begin_step(1);
  w.record_send(0, 0);
  w.record_send(kMaxEdge, kMaxU64);
  w.record_absorb(kMaxU64);
  w.record_reroute(5, RouteSpan{});
  w.record_reroute(kMaxU64, Route{0, kMaxEdge});
  w.record_inject(7, kMaxU64, long_route());
  w.record_queue_depth(0, std::numeric_limits<std::size_t>::max());
}

/// The rest of kAllRecordKinds: one more step and the footer.
void write_second_segment(RunTraceWriter& w) {
  w.begin_step(std::numeric_limits<Time>::max());
  w.record_queue_depth(kMaxEdge, 1);
  w.finish(kMaxU64, 0);
}

TEST(RunTrace, WriterReproducesTheRecordFixtureByteForByte) {
  const Graph g = two_node_graph();
  std::ostringstream os;
  RunTraceWriter w(os, g, extreme_meta());
  write_first_segment(w);
  write_second_segment(w);
  EXPECT_EQ(os.str(), kAllRecordKinds);
}

TEST(RunTrace, HashOnlyWriterHashesTheSameBytes) {
  const Graph g = two_node_graph();
  std::ostringstream os;
  RunTraceWriter streamed(os, g, extreme_meta());
  RunTraceWriter hash_only(g, extreme_meta());
  for (RunTraceWriter* w : {&streamed, &hash_only}) {
    write_first_segment(*w);
    write_second_segment(*w);
  }
  EXPECT_EQ(hash_only.content_hash(), streamed.content_hash());

  const std::string text = kAllRecordKinds;
  const std::size_t footer = text.rfind("hash ");
  ASSERT_NE(footer, std::string::npos);
  EXPECT_EQ(hash_only.content_hash(), fnv1a(text.substr(0, footer)));
  EXPECT_EQ("hash " + hash_hex(hash_only.content_hash()) + "\n",
            text.substr(footer));
}

TEST(RunTrace, HashOnlyContinuationEndsOnTheUninterruptedHash) {
  const Graph g = two_node_graph();
  RunTraceWriter whole(g, extreme_meta());
  write_first_segment(whole);
  write_second_segment(whole);

  RunTraceWriter first(g, extreme_meta());
  write_first_segment(first);
  RunTraceWriter rest(first.resume_state());
  write_second_segment(rest);
  EXPECT_TRUE(rest.finished());
  EXPECT_EQ(rest.content_hash(), whole.content_hash());
}

}  // namespace
}  // namespace aqt
