#include "common/spec.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace rtq {

namespace {

bool IsNameStart(char c) { return c >= 'a' && c <= 'z'; }

// "%.*g" of `v` at the lowest precision, from `min_digits` up, that
// strtod parses back to `v` (17 digits always do).
std::string ShortestRoundTrip(double v, int min_digits) {
  char buf[40];
  for (int precision = min_digits; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

// The conversion for each Take() type, picked by the pointer's type.
StatusOr<int64_t> Convert(const std::string& text, int64_t*) {
  return SpecArgs::ToInt(text);
}
StatusOr<double> Convert(const std::string& text, double*) {
  return SpecArgs::ToDouble(text);
}
StatusOr<std::string> Convert(const std::string& text, std::string*) {
  return text;
}
StatusOr<std::vector<double>> Convert(const std::string& text,
                                      std::vector<double>*) {
  std::vector<double> values;
  for (const std::string& piece : SplitAt(text, ',')) {
    StatusOr<double> value = SpecArgs::ToDouble(piece);
    if (!value.ok()) return value.status();
    values.push_back(value.value());
  }
  return values;
}

}  // namespace

bool IsSpecName(const std::string& name) {
  if (name.empty() || !IsNameStart(name[0])) return false;
  for (char c : name) {
    if (!IsNameStart(c) && !(c >= '0' && c <= '9') && c != '-') return false;
  }
  return true;
}

StatusOr<Spec> Spec::Parse(const std::string& text) {
  size_t colon = text.find(':');
  Spec spec{text.substr(0, colon),
            colon == std::string::npos ? "" : text.substr(colon + 1)};
  if (!IsSpecName(spec.name)) {
    return Status::InvalidArgument(
        "expected name[:args] with name matching [a-z][a-z0-9-]*");
  }
  return spec;
}

std::string Spec::ToString() const {
  return args.empty() ? name : name + ":" + args;
}

std::vector<std::string> SplitAt(const std::string& text, char sep) {
  std::vector<std::string> pieces;
  size_t pos = 0;
  for (size_t at; (at = text.find(sep, pos)) != std::string::npos;
       pos = at + 1) {
    pieces.push_back(text.substr(pos, at - pos));
  }
  pieces.push_back(text.substr(pos));
  return pieces;
}

std::string FormatSpecDoubleList(const std::vector<double>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += ShortestRoundTrip(values[i], 6);  // %g's precision
  }
  return out;
}

StatusOr<int64_t> SpecArgs::ToInt(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || errno != 0 || end != text.c_str() + text.size()) {
    return Status::InvalidArgument("expected an integer, got '" + text + "'");
  }
  return static_cast<int64_t>(value);
}

StatusOr<double> SpecArgs::ToDouble(const std::string& text) {
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(value)) {
    return Status::InvalidArgument("expected a finite number, got '" + text +
                                   "'");
  }
  return value;
}

std::string FormatDouble(double v) { return ShortestRoundTrip(v, 1); }

StatusOr<uint64_t> SpecArgs::ToUint(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || !(text[0] >= '0' && text[0] <= '9') || errno != 0 ||
      end != text.c_str() + text.size()) {
    return Status::InvalidArgument("expected an unsigned integer, got '" +
                                   text + "'");
  }
  return static_cast<uint64_t>(value);
}

Status SpecArgs::Finish() {
  if (text_.empty()) return Status::Ok();
  if (keys_.empty()) {
    return Status::InvalidArgument("takes no arguments, got '" + text_ + "'");
  }
  std::vector<std::string> values(keys_.size());
  std::vector<bool> seen(keys_.size(), false);
  size_t open = keys_.size();  // the key whose value the text is in
  for (const std::string& segment : SplitAt(text_, ',')) {
    size_t eq = segment.find('=');
    size_t k = 0;
    while (eq != std::string::npos && k < keys_.size() &&
           segment.compare(0, eq, keys_[k].name) != 0) {
      ++k;
    }
    if (eq != std::string::npos && k < keys_.size()) {
      if (seen[k]) {
        return Status::InvalidArgument("duplicate key '" +
                                       std::string(keys_[k].name) + "'");
      }
      seen[k] = true;
      values[k] = segment.substr(eq + 1);
      open = k;
    } else if (open < keys_.size() && KeepsCommas(keys_[open])) {
      values[open] += "," + segment;
    } else {
      std::string known;
      for (const Key& key : keys_) {
        if (!known.empty()) known += ", ";
        known += key.name;
      }
      std::string what = eq == std::string::npos
                             ? "expected key=value, got '" + segment + "'"
                             : "unknown key '" + segment.substr(0, eq) + "'";
      return Status::InvalidArgument(what + " (keys: " + known + ")");
    }
  }
  for (size_t k = 0; k < keys_.size(); ++k) {
    if (!seen[k]) continue;
    Status stored = std::visit(
        [&](auto* out) {
          auto value = Convert(values[k], out);
          if (value.ok()) *out = std::move(value).value();
          return value.status();
        },
        keys_[k].out);
    if (!stored.ok()) {
      return Status::InvalidArgument(std::string(keys_[k].name) + ": " +
                                     stored.message());
    }
  }
  return Status::Ok();
}

}  // namespace rtq
