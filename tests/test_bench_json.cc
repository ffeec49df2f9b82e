#include "harness/bench_json.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace rtq::harness {
namespace {

/// Minimal recursive-descent JSON syntax checker: enough to assert that
/// the hand-rolled emitter's output round-trips through a real parser.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    if (!Value()) return false;
    Ws();
    return pos_ == text_.size();
  }

 private:
  void Ws() {
    while (pos_ < text_.size() && std::isspace(
                                      static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  bool Consume(char ch) {
    Ws();
    if (pos_ < text_.size() && text_[pos_] == ch) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(const char* word) {
    size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  bool String() {
    if (!Consume('"')) return false;
    while (pos_ < text_.size()) {
      char ch = text_[pos_];
      if (ch == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(ch) < 0x20) return false;  // raw control
      if (ch == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + static_cast<size_t>(i) >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(
                    text_[pos_ + static_cast<size_t>(i)])))
              return false;
          }
          pos_ += 4;
        } else if (std::strchr("\"\\/bfnrt", esc) == nullptr) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool Value() {
    Ws();
    if (pos_ >= text_.size()) return false;
    char ch = text_[pos_];
    if (ch == '{') return Object();
    if (ch == '[') return Array();
    if (ch == '"') return String();
    if (ch == 't') return Literal("true");
    if (ch == 'f') return Literal("false");
    if (ch == 'n') return Literal("null");
    return Number();
  }
  bool Object() {
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    do {
      Ws();
      if (!String()) return false;
      if (!Consume(':')) return false;
      if (!Value()) return false;
    } while (Consume(','));
    return Consume('}');
  }
  bool Array() {
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    do {
      if (!Value()) return false;
    } while (Consume(','));
    return Consume(']');
  }

  const std::string& text_;
  size_t pos_ = 0;
};

engine::SystemSummary MakeSummary(int64_t completions) {
  engine::SystemSummary s;
  s.overall.completions = completions;
  s.overall.misses = completions / 10;
  s.overall.miss_ratio = 0.1;
  s.overall.avg_wait = 12.5;
  s.overall.avg_exec = 30.25;
  s.overall.avg_response = 42.75;
  s.avg_mpl = 9.5;
  s.avg_disk_utilization = 0.55;
  s.events_dispatched = 123456;
  return s;
}

TEST(JsonWriter, EscapesSpecials) {
  EXPECT_EQ(JsonWriter::Escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::Escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonWriter::Escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonWriter::Escape("line\nbreak\ttab"),
            "line\\nbreak\\ttab");
  EXPECT_EQ(JsonWriter::Escape(std::string("ctl\x01") + "x"),
            "ctl\\u0001x");
}

TEST(JsonWriter, BuildsNestedDocuments) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("a,b");
  w.Key("n").Int(-3);
  w.Key("x").Number(0.25);
  w.Key("flag").Bool(true);
  w.Key("items").BeginArray();
  w.Number(1.0).Number(2.0);
  w.BeginObject().Key("k").String("v").EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a,b\",\"n\":-3,\"x\":0.25,\"flag\":true,"
            "\"items\":[1,2,{\"k\":\"v\"}]}");
  EXPECT_TRUE(JsonChecker(w.str()).Valid());
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  JsonWriter w;
  w.BeginObject();
  w.Key("nan").Number(std::nan(""));
  w.Key("inf").Number(INFINITY);
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"nan\":null,\"inf\":null}");
}

TEST(BenchJsonEmitter, EmitsWellFormedJson) {
  BenchJsonEmitter emitter("test_driver");
  emitter.AddConfig("note", "quote \" and, comma");
  emitter.AddPoint("PMM @ 0.04\nnewline", "PMM", 0.04, MakeSummary(400), 1.5);
  emitter.AddPoint("Max @ 0.05", "Max", 0.05, MakeSummary(500), 1.5);
  std::string json = emitter.ToJson(3.25);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

TEST(BenchJsonEmitter, EmitsTheStableFieldSet) {
  BenchJsonEmitter emitter("test_driver");
  emitter.AddPoint("p", "PMM", 0.04, MakeSummary(400), 1.5);
  std::string json = emitter.ToJson(1.0);

  for (const char* key :
       {"\"driver\":", "\"schema_version\":1", "\"git\":", "\"config\":",
        "\"sim_hours\":", "\"jobs\":", "\"hardware_concurrency\":",
        "\"points\":", "\"label\":", "\"policy\":", "\"lambda\":",
        "\"miss_ratio\":", "\"disk_util\":", "\"avg_mpl\":",
        "\"avg_wait_s\":", "\"avg_exec_s\":", "\"avg_response_s\":",
        "\"completions\":", "\"misses\":", "\"events\":",
        "\"wall_seconds\":", "\"totals\":", "\"events_per_second\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  EXPECT_NE(json.find("\"completions\":400"), std::string::npos);
  EXPECT_NE(json.find("\"events\":123456"), std::string::npos);
  EXPECT_NE(json.find("\"lambda\":0.04"), std::string::npos);
}

TEST(BenchJsonEmitter, GitDescribeEnvOverrideWins) {
  const char* old = std::getenv("RTQ_GIT_DESCRIBE");
  setenv("RTQ_GIT_DESCRIBE", "deadbeef-test", 1);
  EXPECT_EQ(GitDescribe(), "deadbeef-test");
  if (old != nullptr) {
    setenv("RTQ_GIT_DESCRIBE", old, 1);
  } else {
    unsetenv("RTQ_GIT_DESCRIBE");
  }
  EXPECT_NE(GitDescribe(), "");
}

TEST(BenchJsonEmitter, WritesBenchFileUnderResults) {
  BenchJsonEmitter emitter("test_emitter");
  emitter.AddPoint("point", "PMM", 0.07, MakeSummary(10), 1.5);
  EXPECT_EQ(emitter.path(), "results/BENCH_test_emitter.json");
  ASSERT_TRUE(emitter.WriteFile(0.5).ok());
  ASSERT_TRUE(std::filesystem::exists(emitter.path()));

  std::ifstream in(emitter.path());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(JsonChecker(buffer.str()).Valid());
  EXPECT_GT(std::filesystem::file_size(emitter.path()), 0u);
  std::filesystem::remove(emitter.path());
}

}  // namespace
}  // namespace rtq::harness
