// The spec-string grammar behind every "name[:args]" knob: memory
// policies, scenario shapes, shard placements, admission modes and
// serve workloads.
//
//   spec  := name [":" args]
//   name  := [a-z][a-z0-9-]*
//   args  := pair ("," pair)*
//   pair  := key "=" value
//
// A few specs take one bare value instead ("minmax:5", "max:strict").
//
// SpecArgs reads `args`. A caller declares each key it understands with
// one Take() call that binds the key to a variable already holding the
// default; Finish() then parses the text against those keys:
//
//   double rate = 0.07;
//   std::vector<double> weights;
//   SpecArgs args(spec.args);
//   args.Take("rate", &rate);
//   args.Take("w", &weights);
//   RTQ_RETURN_IF_ERROR(args.Finish());
//
// Double-list and text values keep their commas: a segment that does not
// open with a declared key continues the value before it, so "w=1,2" is
// one pair and "candidates=pmm-predict:window=8,lead=3+pmm" is another.
// After an int or double value such a segment is an error. Unknown keys,
// duplicate keys and values that do not convert are InvalidArgument.

#ifndef RTQ_COMMON_SPEC_H_
#define RTQ_COMMON_SPEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace rtq {

/// A spec string split at its first ':' into the name and the raw
/// argument text (empty when absent).
struct Spec {
  std::string name;
  std::string args;

  /// InvalidArgument unless the name matches [a-z][a-z0-9-]*.
  static StatusOr<Spec> Parse(const std::string& text);
  std::string ToString() const;
};

/// True when `name` matches [a-z][a-z0-9-]*.
bool IsSpecName(const std::string& name);

/// Splits `text` at every `sep`; an empty text is one empty piece.
std::vector<std::string> SplitAt(const std::string& text, char sep);

/// Formats doubles as the canonical "v1,v2" argument text: each with %g
/// when that parses back to the same double, otherwise with the fewest
/// more significant digits that do, so a canonical spec rebuilds the
/// values it describes.
std::string FormatSpecDoubleList(const std::vector<double>& values);

/// Shortest decimal rendering of `v` that strtod parses back to the
/// identical double: the number format of traces, snapshots, state
/// digests and canonical scenario specs. Unlike FormatSpecDoubleList it
/// may use an exponent where %g would not (10 is "1e+01").
std::string FormatDouble(double v);

/// Reads one spec's argument text; see the grammar above.
class SpecArgs {
 public:
  explicit SpecArgs(std::string text) : text_(std::move(text)) {}

  /// Declares `key` (a literal: it is read again in Finish()) with `*out`
  /// an int64_t, a double, a std::vector<double> or a std::string (the
  /// raw value text). Finish() stores the value in `*out` when the text
  /// names the key and leaves `*out` (the default) alone otherwise.
  template <typename T>
  void Take(const char* key, T* out) { keys_.push_back({key, out}); }

  /// Parses the text against the declared keys and stores every value.
  Status Finish();

  /// The conversions Finish() applies: the whole of `text` as a base-10
  /// integer, or as a finite double.
  static StatusOr<int64_t> ToInt(const std::string& text);
  static StatusOr<double> ToDouble(const std::string& text);
  /// The whole of `text` as unsigned base-10 digits: no sign, no
  /// overflow, no trailing text.
  static StatusOr<uint64_t> ToUint(const std::string& text);

 private:
  struct Key {
    const char* name;
    std::variant<int64_t*, double*, std::vector<double>*, std::string*> out;
  };

  /// Double-list and text values run on across commas.
  static bool KeepsCommas(const Key& key) {
    return std::holds_alternative<std::vector<double>*>(key.out) ||
           std::holds_alternative<std::string*>(key.out);
  }

  std::string text_;
  std::vector<Key> keys_;
};

}  // namespace rtq

#endif  // RTQ_COMMON_SPEC_H_
