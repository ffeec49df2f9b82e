// harness/args: shared environment-knob helpers and the --flag=value
// parser used by the long-running driver binaries.

#include "harness/args.h"

#include <cstdlib>

#include "gtest/gtest.h"

namespace rtq::harness {
namespace {

class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) { unsetenv(name); }
  ~EnvGuard() { unsetenv(name_); }
  void Set(const char* value) { setenv(name_, value, /*overwrite=*/1); }

 private:
  const char* name_;
};

TEST(EnvKnobs, StringFallsBackWhenUnsetOrEmpty) {
  EnvGuard guard("RTQ_TEST_KNOB");
  EXPECT_EQ(EnvString("RTQ_TEST_KNOB", "dflt"), "dflt");
  guard.Set("");
  EXPECT_EQ(EnvString("RTQ_TEST_KNOB", "dflt"), "dflt");
  guard.Set("value");
  EXPECT_EQ(EnvString("RTQ_TEST_KNOB", "dflt"), "value");
}

TEST(EnvKnobs, PositiveDoubleRejectsZeroNegativeAndGarbage) {
  EnvGuard guard("RTQ_TEST_KNOB");
  EXPECT_DOUBLE_EQ(EnvPositiveDouble("RTQ_TEST_KNOB", 3.0), 3.0);
  guard.Set("10");
  EXPECT_DOUBLE_EQ(EnvPositiveDouble("RTQ_TEST_KNOB", 3.0), 10.0);
  guard.Set("0");
  EXPECT_DOUBLE_EQ(EnvPositiveDouble("RTQ_TEST_KNOB", 3.0), 3.0);
  guard.Set("-2");
  EXPECT_DOUBLE_EQ(EnvPositiveDouble("RTQ_TEST_KNOB", 3.0), 3.0);
  guard.Set("ten");
  EXPECT_DOUBLE_EQ(EnvPositiveDouble("RTQ_TEST_KNOB", 3.0), 3.0);
}

TEST(EnvKnobs, PositiveIntMirrorsDoubleDiscipline) {
  EnvGuard guard("RTQ_TEST_KNOB");
  EXPECT_EQ(EnvPositiveInt("RTQ_TEST_KNOB", 4), 4);
  guard.Set("8");
  EXPECT_EQ(EnvPositiveInt("RTQ_TEST_KNOB", 4), 8);
  guard.Set("0");
  EXPECT_EQ(EnvPositiveInt("RTQ_TEST_KNOB", 4), 4);
  guard.Set("-3");
  EXPECT_EQ(EnvPositiveInt("RTQ_TEST_KNOB", 4), 4);
  guard.Set("jobs");
  EXPECT_EQ(EnvPositiveInt("RTQ_TEST_KNOB", 4), 4);
}

std::vector<const char*> Argv(std::initializer_list<const char*> rest) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), rest.begin(), rest.end());
  return argv;
}

TEST(ArgParser, TypedAccessorsAndFallbacks) {
  auto argv = Argv({"--workload=baseline:rate=0.1", "--seed=7",
                    "--pace=2.5"});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.String("workload", "x"), "baseline:rate=0.1");
  EXPECT_EQ(args.Int("seed", 42), 7);
  EXPECT_DOUBLE_EQ(args.Double("pace", 0.0), 2.5);
  EXPECT_EQ(args.String("missing", "dflt"), "dflt");
  EXPECT_EQ(args.Int("also-missing", 13), 13);
  EXPECT_TRUE(args.Finish().ok());
}

TEST(ArgParser, UnknownFlagFailsFinish) {
  auto argv = Argv({"--workload=x", "--max-event=5"});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  args.String("workload", "");
  Status st = args.Finish();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("max-event"), std::string::npos);
}

TEST(ArgParser, MalformedValueFailsFinish) {
  auto argv = Argv({"--seed=seven", "--shards=4294967297"});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.Int("seed", 42), 42);  // falls back, but records the error
  // An integer outside the accessor's range is an error too.
  EXPECT_EQ(args.Int("shards", 1, 1, 1 << 30), 1);
  Status st = args.Finish();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("seed"), std::string::npos);
  EXPECT_NE(st.message().find("shards"), std::string::npos);
}

TEST(ArgParser, CollectsPositionals) {
  // A stray positional (rtq_serve baseline:rate=0.3) would otherwise run
  // the defaults silently: Finish() names each one.
  auto argv = Argv({"input.rtqs", "--seed=1", "other"});
  ArgParser args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.Int("seed", 0), 1);
  Status st = args.Finish();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("input.rtqs"), std::string::npos);
  EXPECT_NE(st.message().find("other"), std::string::npos);
}

}  // namespace
}  // namespace rtq::harness
