#include "harness/args.h"

#include <cstdlib>

#include "common/spec.h"

namespace rtq::harness {

std::string EnvString(const char* name, const std::string& fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  return env;
}

double EnvPositiveDouble(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  double parsed = std::atof(env);
  return parsed > 0.0 ? parsed : fallback;
}

int EnvPositiveInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  int parsed = std::atoi(env);
  return parsed > 0 ? parsed : fallback;
}

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      errors_.push_back("unexpected argument '" + arg + "'");
      continue;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    Entry entry;
    std::string name;
    if (eq == std::string::npos) {
      name = body;
    } else {
      name = body.substr(0, eq);
      entry.value = body.substr(eq + 1);
      entry.has_value = true;
    }
    if (name.empty()) {
      errors_.push_back("malformed flag '" + arg + "'");
      continue;
    }
    if (!flags_.emplace(name, std::move(entry)).second) {
      errors_.push_back("flag --" + name + " given twice");
    }
  }
}

const std::string* ArgParser::Value(const std::string& flag) {
  auto it = flags_.find(flag);
  if (it == flags_.end()) return nullptr;
  it->second.consumed = true;
  if (!it->second.has_value) {
    errors_.push_back("--" + flag + " requires a value (--" + flag + "=...)");
    return nullptr;
  }
  return &it->second.value;
}

std::string ArgParser::String(const std::string& flag,
                              const std::string& fallback) {
  const std::string* value = Value(flag);
  return value == nullptr ? fallback : *value;
}

double ArgParser::Double(const std::string& flag, double fallback,
                         double min, double max) {
  const std::string* value = Value(flag);
  if (value == nullptr) return fallback;
  StatusOr<double> parsed = SpecArgs::ToDouble(*value);
  if (!parsed.ok()) {
    errors_.push_back("--" + flag + ": " + parsed.status().message());
  } else if (parsed.value() < min || parsed.value() > max) {
    errors_.push_back("--" + flag + ": " + *value + " is outside [" +
                      FormatSpecDoubleList({min, max}) + "]");
  } else {
    return parsed.value();
  }
  return fallback;
}

int64_t ArgParser::Int(const std::string& flag, int64_t fallback,
                       int64_t min, int64_t max) {
  const std::string* value = Value(flag);
  if (value == nullptr) return fallback;
  StatusOr<int64_t> parsed = SpecArgs::ToInt(*value);
  if (!parsed.ok()) {
    errors_.push_back("--" + flag + ": " + parsed.status().message());
  } else if (parsed.value() < min || parsed.value() > max) {
    errors_.push_back("--" + flag + ": " + *value + " is outside [" +
                      std::to_string(min) + ", " + std::to_string(max) + "]");
  } else {
    return parsed.value();
  }
  return fallback;
}

Status ArgParser::Finish() const {
  std::vector<std::string> problems = errors_;
  for (const auto& [name, entry] : flags_) {
    if (!entry.consumed) problems.push_back("unexpected flag --" + name);
  }
  if (problems.empty()) return Status::Ok();
  std::string joined;
  for (const std::string& p : problems) {
    if (!joined.empty()) joined += "; ";
    joined += p;
  }
  return Status::InvalidArgument(joined);
}

}  // namespace rtq::harness
