/// Round-trip and robustness tests for the minimal JSON value type every
/// report schema is built on.  The properties that matter downstream:
/// object order is preserved (diffable reports), integer counters survive
/// without passing through double, and a re-parse preserves the numeric
/// kind (doubles always render with a '.').
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace sfg::obs {
namespace {

TEST(Json, PrimitivesDump) {
  EXPECT_EQ(json().dump(), "null");
  EXPECT_EQ(json(nullptr).dump(), "null");
  EXPECT_EQ(json(true).dump(), "true");
  EXPECT_EQ(json(false).dump(), "false");
  EXPECT_EQ(json(42).dump(), "42");
  EXPECT_EQ(json(std::int64_t{-7}).dump(), "-7");
  EXPECT_EQ(json("hi").dump(), "\"hi\"");
}

TEST(Json, LargeIntegersKeepExactValue) {
  // A counter near 2^64 must not be squeezed through double.
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max() - 1;
  const json j(big);
  EXPECT_EQ(j.dump(), "18446744073709551614");
  const auto back = json::parse(j.dump());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->as_u64(), big);

  const std::int64_t small = std::numeric_limits<std::int64_t>::min();
  const auto back2 = json::parse(json(small).dump());
  ASSERT_TRUE(back2.has_value());
  EXPECT_EQ(back2->as_i64(), small);
}

TEST(Json, DoublesAlwaysRenderWithDecimalPoint) {
  // 2.0 must not serialize as "2": a re-parse would change the numeric
  // kind and a strict consumer would see an integer where a gauge was.
  const std::string s = json(2.0).dump();
  EXPECT_NE(s.find('.'), std::string::npos) << s;
  const auto back = json::parse(s);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->is_number());
  EXPECT_DOUBLE_EQ(back->as_double(), 2.0);
}

TEST(Json, NonFiniteSerializesAsNull) {
  EXPECT_EQ(json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  json o = json::object();
  o["zebra"] = json(1);
  o["alpha"] = json(2);
  o["mid"] = json(3);
  EXPECT_EQ(o.dump(), R"({"zebra":1,"alpha":2,"mid":3})");
  ASSERT_EQ(o.items().size(), 3u);
  EXPECT_EQ(o.items()[0].first, "zebra");
  EXPECT_EQ(o.items()[2].first, "mid");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(json("a\"b\\c").dump(), R"("a\"b\\c")");
  EXPECT_EQ(json("line\nbreak\ttab").dump(), R"("line\nbreak\ttab")");
  EXPECT_EQ(json(std::string("nul\0byte", 8)).dump(), R"("nul\u0000byte")");
}

TEST(Json, ParseEscapes) {
  const auto j = json::parse(R"("a\n\t\"\\\u0041\u00e9")");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->as_string(), "a\n\t\"\\A\xc3\xa9");
}

TEST(Json, ParseSurrogatePair) {
  const auto j = json::parse(R"("\ud83d\ude00")");  // 😀 U+1F600
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->as_string(), "\xf0\x9f\x98\x80");
}

TEST(Json, RoundTripNestedDocument) {
  json doc = json::object();
  doc["name"] = json("bfs");
  doc["ok"] = json(true);
  doc["count"] = json(std::uint64_t{12345678901234567890u});
  doc["rate"] = json(0.25);
  json arr = json::array();
  arr.push_back(json(1));
  arr.push_back(json("two"));
  arr.push_back(json());
  doc["mixed"] = std::move(arr);
  json inner = json::object();
  inner["deep"] = json(-1);
  doc["nested"] = std::move(inner);

  const auto back = json::parse(doc.dump());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, doc);
  EXPECT_EQ(back->dump(), doc.dump());
}

TEST(Json, ParseWhitespaceTolerance) {
  const auto j = json::parse(" \n\t{ \"a\" : [ 1 , 2 ] }\r\n ");
  ASSERT_TRUE(j.has_value());
  ASSERT_NE(j->find("a"), nullptr);
  EXPECT_EQ(j->find("a")->size(), 2u);
}

TEST(Json, MalformedInputsRejected) {
  for (const char* bad :
       {"", "{", "[1,", "tru", "\"unterminated", "{\"a\":}", "{\"a\":1,}",
        "[1,]", "{'a':1}", "1 2", "nullx", "- 1", "+1", "01x", "{\"a\" 1}",
        "\"bad\\escape\"", "\"\\u12\"", "[}", "NaN"}) {
    EXPECT_FALSE(json::parse(bad).has_value()) << "accepted: " << bad;
  }
}

TEST(Json, TrailingGarbageRejected) {
  EXPECT_FALSE(json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(json::parse("[1,2],").has_value());
}

TEST(Json, DepthCapRejectsPathologicalNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(json::parse(deep).has_value());
  // ...but reasonable nesting is fine.
  std::string ok(100, '[');
  ok += "1";
  ok += std::string(100, ']');
  EXPECT_TRUE(json::parse(ok).has_value());
}

TEST(Json, EqualityAcrossIntegerKinds) {
  EXPECT_EQ(json(std::int64_t{5}), json(std::uint64_t{5}));
  EXPECT_NE(json(std::int64_t{-1}),
            json(std::numeric_limits<std::uint64_t>::max()));
  EXPECT_NE(json(1), json(true));
  EXPECT_NE(json("1"), json(1));
}

TEST(Json, CheckedIntegerReadRejectsOtherKinds) {
  EXPECT_EQ(json(7).get_int<std::uint64_t>(), 7u);
  EXPECT_EQ(json(std::int64_t{-1}).get_int<std::int64_t>(), -1);
  EXPECT_EQ(json(std::numeric_limits<std::uint64_t>::max())
                .get_int<std::uint64_t>(),
            std::numeric_limits<std::uint64_t>::max());
  // Out of range for the requested type.
  EXPECT_FALSE(json(std::int64_t{-1}).get_int<std::uint64_t>());
  EXPECT_FALSE(json(std::numeric_limits<std::uint64_t>::max())
                   .get_int<std::int64_t>());
  // Not an integer kind, even when the value is whole.
  EXPECT_FALSE(json(1.0).get_int<std::uint64_t>());
  EXPECT_FALSE(json(0.5).get_int<std::int64_t>());
  EXPECT_FALSE(json("1").get_int<std::uint64_t>());
  EXPECT_FALSE(json().get_int<std::uint64_t>());
  EXPECT_FALSE(json(true).get_int<std::uint64_t>());
  // A parsed "1.0" stays a double.
  EXPECT_FALSE(json::parse("1.0")->get_int<std::uint64_t>());
  EXPECT_EQ(json::parse("12")->get_int<std::uint64_t>(), 12u);
}

TEST(Json, FindAndIndexing) {
  json o = json::object();
  o["k"] = json(9);
  EXPECT_EQ(o.find("missing"), nullptr);
  ASSERT_NE(o.find("k"), nullptr);
  EXPECT_EQ(o.find("k")->as_u64(), 9u);
  EXPECT_EQ(json(3).find("k"), nullptr);  // non-object lookup is safe

  json a = json::array();
  a.push_back(json("x"));
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.at(0).as_string(), "x");
  EXPECT_EQ(json("scalar").size(), 0u);
}

}  // namespace
}  // namespace sfg::obs
