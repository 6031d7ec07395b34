//===- tests/SupportTest.cpp - Support utility tests ----------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/CacheLine.h"
#include "support/Clock.h"
#include "support/FunctionRef.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Spin.h"

#include "gtest/gtest.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

using namespace crafty;

namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng A(42), B(42), C(43);
  for (int I = 0; I != 100; ++I) {
    uint64_t VA = A.next();
    EXPECT_EQ(VA, B.next());
    (void)C.next();
  }
  Rng A2(42), C2(43);
  EXPECT_NE(A2.next(), C2.next());
}

TEST(Rng, BoundedStaysInRange) {
  Rng R(7);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40})
    for (int I = 0; I != 200; ++I)
      EXPECT_LT(R.nextBounded(Bound), Bound);
}

TEST(Rng, ChanceIsRoughlyCalibrated) {
  Rng R(11);
  int Hits = 0;
  constexpr int Trials = 20000;
  for (int I = 0; I != Trials; ++I)
    if (R.chance(1, 4))
      ++Hits;
  EXPECT_GT(Hits, Trials / 4 - Trials / 20);
  EXPECT_LT(Hits, Trials / 4 + Trials / 20);
}

TEST(Rng, ValuesAreWellSpread) {
  Rng R(3);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 1000; ++I)
    Seen.insert(R.next());
  EXPECT_EQ(Seen.size(), 1000u) << "64-bit outputs should not collide";
}

TEST(CacheLine, GeometryHelpers) {
  alignas(64) static uint8_t Buf[192];
  EXPECT_EQ(lineOf(&Buf[0]), reinterpret_cast<uintptr_t>(&Buf[0]));
  EXPECT_EQ(lineOf(&Buf[63]), reinterpret_cast<uintptr_t>(&Buf[0]));
  EXPECT_EQ(lineOf(&Buf[64]), reinterpret_cast<uintptr_t>(&Buf[64]));
  EXPECT_TRUE(isWordAligned(&Buf[0]));
  EXPECT_TRUE(isWordAligned(&Buf[8]));
  EXPECT_FALSE(isWordAligned(&Buf[4]));
}

TEST(Clock, MonotonicNanosAdvances) {
  uint64_t A = monotonicNanos();
  spinForNanos(1000);
  uint64_t B = monotonicNanos();
  EXPECT_GE(B - A, 1000u);
}

TEST(Clock, SpinForZeroIsFree) {
  uint64_t A = monotonicNanos();
  spinForNanos(0);
  EXPECT_LT(monotonicNanos() - A, 1000000u);
}

TEST(FunctionRef, ForwardsArgumentsAndResults) {
  int Calls = 0;
  auto Lambda = [&Calls](int X) {
    ++Calls;
    return X * 2;
  };
  FunctionRef<int(int)> Ref(Lambda);
  EXPECT_EQ(Ref(21), 42);
  EXPECT_EQ(Calls, 1);
  EXPECT_TRUE(static_cast<bool>(Ref));
  FunctionRef<int(int)> Empty;
  EXPECT_FALSE(static_cast<bool>(Empty));
}

TEST(FunctionRef, ReferencesMutableState) {
  uint64_t Sum = 0;
  auto Add = [&Sum](uint64_t V) { Sum += V; };
  FunctionRef<void(uint64_t)> Ref(Add);
  Ref(5);
  Ref(7);
  EXPECT_EQ(Sum, 12u);
}

TEST(Spin, BackoffEventuallyYields) {
  SpinBackoff B;
  for (int I = 0; I != 100; ++I)
    B.pause(); // Must not hang or crash; yields after bursts.
  B.reset();
  B.pause();
}

std::string readWholeFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

TEST(Json, EscapesQuotesBackslashesAndControlCharacters) {
  std::string Out;
  JsonWriter::escape(Out, std::string_view("a\"b\\c\n\t\r\x01\x1f\0z", 12));
  EXPECT_EQ(Out, R"("a\"b\\c\n\t\r\u0001\u001f\u0000z")");

  std::string Doc;
  JsonWriter(Doc, JsonWriter::Compact)
      .beginObject()
      .field("k\"ey", "v\x02")
      .endObject();
  EXPECT_EQ(Doc, R"({"k\"ey":"v\u0002"})");
}

TEST(Json, PlacesCommasInEmptyAndNestedContainers) {
  auto Build = [](JsonWriter &W) {
    W.beginObject().key("a").beginObject().endObject();
    W.key("b").beginArray().endArray();
    W.key("c").beginArray().beginArray().endArray();
    W.beginObject().field("x", 1).endObject().value(2).endArray();
    W.endObject();
  };
  std::string Compact;
  JsonWriter C(Compact, JsonWriter::Compact);
  Build(C);
  EXPECT_EQ(Compact, R"({"a":{},"b":[],"c":[[],{"x":1},2]})");

  std::string Pretty;
  JsonWriter P(Pretty);
  Build(P);
  EXPECT_EQ(Pretty, "{\n"
                    "  \"a\": {},\n"
                    "  \"b\": [],\n"
                    "  \"c\": [\n"
                    "    [],\n"
                    "    {\n"
                    "      \"x\": 1\n"
                    "    },\n"
                    "    2\n"
                    "  ]\n"
                    "}");

  // Inline containers stay on one line, and so do their children.
  std::string Inline;
  JsonWriter(Inline)
      .beginArray()
      .beginObject(/*Inline=*/true)
      .field("a", 1)
      .key("b")
      .beginArray()
      .value(2)
      .beginObject()
      .endObject()
      .endArray()
      .endObject()
      .beginArray(/*Inline=*/true)
      .endArray()
      .endArray();
  EXPECT_EQ(Inline, "[\n  {\"a\": 1, \"b\": [2, {}]},\n  []\n]");

  std::string Empty;
  JsonWriter(Empty).beginArray().endArray();
  EXPECT_EQ(Empty, "[]");
}

TEST(Json, WritesIntegerExtremesAndFixedPrecisionDoubles) {
  std::string Out;
  JsonWriter(Out, JsonWriter::Compact)
      .beginArray()
      .value(std::numeric_limits<uint64_t>::max())
      .value(std::numeric_limits<int64_t>::min())
      .value(0u)
      .value(true)
      .value(1885.84, 1)
      .value(2.0 / 3.0, 3)
      .value(0.01, 2)
      .value(3186616.4, 0)
      .value(0.01)
      .value(3.0)
      .value(std::nan(""), 1)
      .endArray();
  EXPECT_EQ(Out, "[18446744073709551615,-9223372036854775808,0,true,1885.8,"
                 "0.667,0.01,3186616,0.01,3,null]");
}

/// A trajectory point as the benches render one.
std::string labelPoint(const std::string &Label, uint64_t N) {
  std::string Point;
  JsonWriter(Point, JsonWriter::Pretty, TrajectoryPointDepth)
      .beginObject()
      .field("label", Label)
      .field("n", N)
      .endObject();
  return Point;
}

TEST(Json, TrajectoryAppendCreatesThenSplicesEscapedPoints) {
  std::string Path = ::testing::TempDir() + "/crafty_json_trajectory.json";
  std::remove(Path.c_str());

  ASSERT_TRUE(appendTrajectoryPoint(Path, "demo-v1", "n = count",
                                    labelPoint("pr\"15", 1)));
  const std::string First = "{\n"
                            "  \"schema\": \"demo-v1\",\n"
                            "  \"unit\": \"n = count\",\n"
                            "  \"points\": [\n"
                            "    {\n"
                            "      \"label\": \"pr\\\"15\",\n"
                            "      \"n\": 1\n"
                            "    }\n"
                            "  ]\n"
                            "}\n";
  EXPECT_EQ(readWholeFile(Path), First);

  ASSERT_TRUE(appendTrajectoryPoint(Path, "demo-v1", "n = count",
                                    labelPoint("a\\b\nc", 2)));
  const std::string Second = "{\n"
                             "  \"schema\": \"demo-v1\",\n"
                             "  \"unit\": \"n = count\",\n"
                             "  \"points\": [\n"
                             "    {\n"
                             "      \"label\": \"pr\\\"15\",\n"
                             "      \"n\": 1\n"
                             "    },\n"
                             "    {\n"
                             "      \"label\": \"a\\\\b\\nc\",\n"
                             "      \"n\": 2\n"
                             "    }\n"
                             "  ]\n"
                             "}\n";
  EXPECT_EQ(readWholeFile(Path), Second);
  std::remove(Path.c_str());
}

TEST(Json, TrajectoryAppendRefusesForeignFileUntouched) {
  std::string Path = ::testing::TempDir() + "/crafty_json_foreign.json";
  // Not a trajectory at all, and a trajectory of another schema (whose
  // tail alone would match the splice point).
  for (const std::string &Foreign :
       {std::string("{\"other\": [1]}\n"),
        trajectoryDocument("other-v1", "u", labelPoint("x", 1))}) {
    ASSERT_TRUE(writeTextFile(Path, Foreign));
    EXPECT_FALSE(
        appendTrajectoryPoint(Path, "demo-v1", "u", labelPoint("y", 2)));
    EXPECT_EQ(readWholeFile(Path), Foreign);
  }
  std::remove(Path.c_str());
}

} // namespace
