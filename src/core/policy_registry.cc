#include "core/policy_registry.h"

namespace rtq::core {

StatusOr<std::vector<std::string>> ParsePolicyList(const std::string& text) {
  std::vector<std::string> specs;
  for (std::string segment : SplitAt(text, ',')) {
    // Trim surrounding whitespace.
    size_t b = segment.find_first_not_of(" \t");
    size_t e = segment.find_last_not_of(" \t");
    segment = b == std::string::npos ? "" : segment.substr(b, e - b + 1);

    // A segment continues the previous spec's arguments when it cannot
    // start a new spec: it opens with a non-name character ("2" in
    // "w=1,2") or it is a key=value pair with the '=' before any ':'
    // ("window=10" in "select:candidates=pmm,window=10" — never a valid
    // spec, since '=' cannot appear in a policy name).
    bool key_value_continuation =
        segment.find('=') != std::string::npos &&
        segment.find('=') < segment.find(':');
    if (!segment.empty() &&
        (segment[0] < 'a' || segment[0] > 'z' || key_value_continuation) &&
        !specs.empty()) {
      specs.back() += "," + segment;
    } else if (!segment.empty()) {
      specs.push_back(segment);
    } else if (!text.empty()) {
      return Status::InvalidArgument("empty policy spec in list '" + text +
                                     "'");
    }
  }
  if (specs.empty()) {
    return Status::InvalidArgument("empty policy list");
  }
  // Validate each spec's shape eagerly so errors name the offender.
  for (const std::string& spec : specs) {
    auto parsed = Spec::Parse(spec);
    if (!parsed.ok()) {
      return Status::InvalidArgument("policy spec '" + spec +
                                     "': " + parsed.status().message());
    }
  }
  return specs;
}

}  // namespace rtq::core
