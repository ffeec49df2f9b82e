// The `.rtqt` trace format contract (workload/trace.h):
//
//  1. Parse(Serialize(t)) == t is a fixed point — including NaN
//     stand-alone fields, extreme doubles, and empty traces — because
//     FormatDouble emits the shortest exact decimal rendering.
//  2. Malformed input returns a Status error naming the offending line;
//     it never crashes. Pinned for every grammar rule, then fuzzed: a
//     seeded corruption fuzzer mutates/truncates valid serializations
//     and feeds them back through ParseTrace.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/rng.h"
#include "common/spec.h"
#include "workload/trace.h"

namespace rtq::workload {
namespace {

QueryBlueprint Join(SimTime time, int32_t cls, int64_t r, int64_t s,
                 double slack, double standalone) {
  QueryBlueprint rec;
  rec.time = time;
  rec.query_class = cls;
  rec.type = exec::QueryType::kHashJoin;
  rec.r = r;
  rec.s = s;
  rec.slack = slack;
  rec.standalone = standalone;
  return rec;
}

Trace SmallTrace() {
  Trace t;
  t.num_classes = 2;
  t.scenario = "diurnal:rate=0.07,amp=0.6,period=7200,small=0.5";
  t.seed = 42;
  t.records.push_back(Join(0.125, 0, 3, 17, 2.5, 31.25));
  QueryBlueprint sort;
  sort.time = 10.75;
  sort.query_class = 1;
  sort.type = exec::QueryType::kExternalSort;
  sort.r = 5;
  sort.s = -1;
  sort.slack = 7.5;
  sort.standalone = std::numeric_limits<double>::quiet_NaN();
  t.records.push_back(sort);
  return t;
}

TEST(Trace, SerializeParseIsAFixedPoint) {
  Trace t = SmallTrace();
  std::string text = SerializeTrace(t);
  auto parsed = ParseTrace(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), t);
  // And the serialized form itself is a fixed point.
  EXPECT_EQ(SerializeTrace(parsed.value()), text);
}

TEST(Trace, EmptyTraceRoundTrips) {
  Trace t;
  t.num_classes = 1;
  auto parsed = ParseTrace(SerializeTrace(t));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), t);
  EXPECT_TRUE(parsed.value().records.empty());
}

TEST(Trace, AwkwardDoublesRoundTripExactly) {
  // Values whose decimal renderings are classic round-trip hazards.
  const double awkward[] = {0.1,
                            1.0 / 3.0,
                            1e-300,
                            1.7976931348623157e308,
                            5e-324,
                            123456789.123456789,
                            std::nextafter(1.0, 2.0)};
  for (double v : awkward) {
    EXPECT_EQ(std::strtod(FormatDouble(v).c_str(), nullptr), v)
        << FormatDouble(v);
  }
  Trace t;
  t.num_classes = 1;
  SimTime time = 0.0;
  for (double v : awkward) {
    time += std::fabs(v) < 1e6 ? std::fabs(v) : 1.0;
    t.records.push_back(Join(time, 0, 0, 1, 1.0 / 3.0, 0.1 + time));
  }
  auto parsed = ParseTrace(SerializeTrace(t));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), t);
}

TEST(Trace, CommentsAndBlankLinesAreIgnored) {
  auto parsed = ParseTrace(
      "# hand-written trace\n"
      "rtqt 1\n"
      "\n"
      "classes 2\n"
      "scenario -\n"
      "seed 7\n"
      "records 1\n"
      "# the single arrival\n"
      "q 1.5 0 join 0 1 2.5 -\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().num_classes, 2);
  EXPECT_EQ(parsed.value().seed, 7u);
  EXPECT_TRUE(parsed.value().scenario.empty());
  ASSERT_EQ(parsed.value().records.size(), 1u);
  EXPECT_TRUE(std::isnan(parsed.value().records[0].standalone));
}

TEST(Trace, MalformedInputsReturnStatusErrors) {
  const char* header =
      "rtqt 1\nclasses 2\nscenario -\nseed 42\nrecords 1\n";
  const struct {
    const char* name;
    std::string text;
  } cases[] = {
      {"empty", ""},
      {"missing version", "classes 2\n"},
      {"bad version", "rtqt 2\n"},
      {"non-numeric version", "rtqt one\n"},
      {"record before header", "rtqt 1\nq 0 0 join 0 1 2.5 -\n"},
      {"duplicate classes", "rtqt 1\nclasses 2\nclasses 2\n"},
      {"negative seed", "rtqt 1\nclasses 2\nscenario -\nseed -3\n"},
      {"signed seed", "rtqt 1\nclasses 2\nscenario -\nseed +7\nrecords 0\n"},
      {"classes past 2^31",
       "rtqt 1\nclasses 4294967297\nscenario -\nseed 42\nrecords 0\n"},
      {"unknown directive", std::string(header) + "frobnicate 3\n"},
      {"truncated record", std::string(header) + "q 0 0 join 0 1\n"},
      {"extra tokens", std::string(header) + "q 0 0 join 0 1 2.5 - extra\n"},
      {"negative time", std::string(header) + "q -1 0 join 0 1 2.5 -\n"},
      {"inf time", std::string(header) + "q inf 0 join 0 1 2.5 -\n"},
      {"class out of range", std::string(header) + "q 0 2 join 0 1 2.5 -\n"},
      {"unknown type", std::string(header) + "q 0 0 scan 0 1 2.5 -\n"},
      {"negative relation", std::string(header) + "q 0 0 join -1 1 2.5 -\n"},
      {"join missing outer", std::string(header) + "q 0 0 join 0 - 2.5 -\n"},
      {"sort with outer", std::string(header) + "q 0 0 sort 0 1 2.5 -\n"},
      {"zero slack", std::string(header) + "q 0 0 join 0 1 0 -\n"},
      {"bad standalone", std::string(header) + "q 0 0 join 0 1 2.5 zero\n"},
      {"record count mismatch", std::string(header)},
      {"out of order",
       "rtqt 1\nclasses 2\nscenario -\nseed 42\nrecords 2\n"
       "q 5 0 join 0 1 2.5 -\nq 4 0 join 0 1 2.5 -\n"},
  };
  for (const auto& c : cases) {
    auto parsed = ParseTrace(c.text);
    EXPECT_FALSE(parsed.ok()) << c.name;
  }
}

/// Deterministic random trace: sorted times, mixed joins/sorts, NaN or
/// finite stand-alone fields.
Trace RandomTrace(Rng* rng) {
  Trace t;
  t.num_classes = 1 + static_cast<int32_t>(rng->UniformInt(0, 3));
  if (rng->NextDouble() < 0.5) t.scenario = "fuzz:seed=1";
  t.seed = static_cast<uint64_t>(rng->UniformInt(0, 1 << 30));
  int n = static_cast<int>(rng->UniformInt(0, 20));
  SimTime time = 0.0;
  for (int i = 0; i < n; ++i) {
    time += rng->Exponential(1.0);
    bool join = rng->NextDouble() < 0.7;
    QueryBlueprint rec;
    rec.time = time;
    rec.query_class = static_cast<int32_t>(
        rng->UniformInt(0, t.num_classes - 1));
    rec.type = join ? exec::QueryType::kHashJoin
                    : exec::QueryType::kExternalSort;
    rec.r = rng->UniformInt(0, 99);
    rec.s = join ? rng->UniformInt(0, 99) : -1;
    rec.slack = rng->Uniform(0.1, 10.0);
    rec.standalone = rng->NextDouble() < 0.3
                         ? std::numeric_limits<double>::quiet_NaN()
                         : rng->Uniform(0.001, 1e4);
    t.records.push_back(rec);
  }
  return t;
}

TEST(TraceFuzz, RandomTracesRoundTripExactly) {
  Rng rng(20260807);
  for (int iter = 0; iter < 200; ++iter) {
    Trace t = RandomTrace(&rng);
    std::string text = SerializeTrace(t);
    auto parsed = ParseTrace(text);
    ASSERT_TRUE(parsed.ok()) << iter << ": " << parsed.status().ToString();
    ASSERT_EQ(parsed.value(), t) << iter;
    ASSERT_EQ(SerializeTrace(parsed.value()), text) << iter;
  }
}

TEST(TraceFuzz, CorruptedInputNeverCrashes) {
  Rng rng(4242);
  for (int iter = 0; iter < 400; ++iter) {
    std::string text = SerializeTrace(RandomTrace(&rng));
    // Mutate a few bytes, or truncate, or both.
    if (!text.empty() && rng.NextDouble() < 0.5) {
      text.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1)));
    }
    int mutations = static_cast<int>(rng.UniformInt(0, 5));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
      text[pos] = static_cast<char>(rng.UniformInt(9, 126));
    }
    auto parsed = ParseTrace(text);  // must not crash; either outcome ok
    if (parsed.ok()) {
      // Whatever survived must itself round-trip.
      auto again = ParseTrace(SerializeTrace(parsed.value()));
      ASSERT_TRUE(again.ok()) << iter;
      EXPECT_EQ(again.value(), parsed.value()) << iter;
    } else {
      EXPECT_FALSE(parsed.status().message().empty()) << iter;
    }
  }
}

TEST(Trace, FileRoundTrip) {
  Trace t = SmallTrace();
  std::string path = ::testing::TempDir() + "/rtq_trace_test.rtqt";
  ASSERT_TRUE(WriteTraceFile(t, path).ok());
  auto read = ReadTraceFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), t);
  EXPECT_FALSE(ReadTraceFile(path + ".missing").ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rtq::workload
