#include "harness/bench_json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/check.h"
#include "common/file.h"
#include "harness/args.h"
#include "harness/paper_experiments.h"
#include "harness/runner.h"

#ifndef RTQ_GIT_DESCRIBE
#define RTQ_GIT_DESCRIBE "unknown"
#endif

namespace rtq::harness {

// --- JsonWriter ------------------------------------------------------------

std::string JsonWriter::Escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (unsigned char ch : raw) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (ch < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += static_cast<char>(ch);
        }
    }
  }
  return out;
}

void JsonWriter::Comma() {
  if (pending_key_) {
    // A value following its key: the comma (if any) was written with the
    // key itself.
    pending_key_ = false;
    return;
  }
  if (has_value_.back()) out_ += ',';
  has_value_.back() = true;
}

JsonWriter& JsonWriter::BeginObject() {
  Comma();
  out_ += '{';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  RTQ_CHECK(has_value_.size() > 1 && !pending_key_);
  has_value_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Comma();
  out_ += '[';
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  RTQ_CHECK(has_value_.size() > 1 && !pending_key_);
  has_value_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& name) {
  RTQ_CHECK(!pending_key_);
  if (has_value_.back()) out_ += ',';
  has_value_.back() = true;
  out_ += '"';
  out_ += Escape(name);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  Comma();
  out_ += '"';
  out_ += Escape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  Comma();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  Comma();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Comma();
  out_ += value ? "true" : "false";
  return *this;
}

// --- BenchJsonEmitter ------------------------------------------------------

std::string GitDescribe() {
  return EnvString("RTQ_GIT_DESCRIBE", RTQ_GIT_DESCRIBE);
}

BenchJsonEmitter::BenchJsonEmitter(std::string driver)
    : driver_(std::move(driver)) {}

void BenchJsonEmitter::AddPoint(std::string label, std::string policy,
                                double lambda,
                                const engine::SystemSummary& summary,
                                double wall_seconds, double gap_to_oracle) {
  points_.push_back(Point{std::move(label), std::move(policy), lambda, summary,
                          wall_seconds, gap_to_oracle});
}

void BenchJsonEmitter::AddConfig(const std::string& key,
                                 const std::string& value) {
  extra_config_.emplace_back(key, value);
}

std::string BenchJsonEmitter::ToJson(double total_wall_seconds) const {
  int64_t total_events = 0;
  for (const Point& p : points_) {
    total_events += static_cast<int64_t>(p.summary.events_dispatched);
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("driver").String(driver_);
  w.Key("schema_version").Int(1);
  w.Key("git").String(GitDescribe());

  w.Key("config").BeginObject();
  w.Key("sim_hours").Number(ExperimentDuration() / 3600.0);
  w.Key("jobs").Int(BenchJobs());
  w.Key("hardware_concurrency")
      .Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  for (const auto& [key, value] : extra_config_) w.Key(key).String(value);
  w.EndObject();

  w.Key("points").BeginArray();
  for (const Point& p : points_) {
    const engine::SystemSummary& s = p.summary;
    w.BeginObject();
    w.Key("label").String(p.label);
    w.Key("policy").String(p.policy);
    w.Key("lambda").Number(p.lambda);
    w.Key("miss_ratio").Number(s.overall.miss_ratio);
    w.Key("disk_util").Number(s.avg_disk_utilization);
    w.Key("avg_mpl").Number(s.avg_mpl);
    w.Key("avg_wait_s").Number(s.overall.avg_wait);
    w.Key("avg_exec_s").Number(s.overall.avg_exec);
    w.Key("avg_response_s").Number(s.overall.avg_response);
    w.Key("completions").Int(s.overall.completions);
    w.Key("misses").Int(s.overall.misses);
    w.Key("events").Int(static_cast<int64_t>(s.events_dispatched));
    w.Key("wall_seconds").Number(p.wall_seconds);
    if (std::isfinite(p.gap_to_oracle)) {
      w.Key("gap_to_oracle").Number(p.gap_to_oracle);
    }
    w.EndObject();
  }
  w.EndArray();

  w.Key("totals").BeginObject();
  w.Key("wall_seconds").Number(total_wall_seconds);
  w.Key("events").Int(total_events);
  w.Key("events_per_second")
      .Number(total_wall_seconds > 0.0
                  ? static_cast<double>(total_events) / total_wall_seconds
                  : 0.0);
  w.EndObject();

  w.EndObject();
  return w.str() + "\n";
}

std::string BenchJsonEmitter::path() const {
  return "results/BENCH_" + driver_ + ".json";
}

Status BenchJsonEmitter::WriteFile(double total_wall_seconds) const {
  return WriteStringToFile(path(), ToJson(total_wall_seconds));
}

}  // namespace rtq::harness
