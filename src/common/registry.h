// String-keyed registry of factories that build a Product from a spec
// string (common/spec.h), instantiated once per spec-named family:
// core::PolicyRegistry (memory policies) and workload::ScenarioRegistry
// (scenario generators).
//
// Factories self-register from their own translation units with
// RTQ_REGISTER, so adding a policy or a scenario is one new .cc file.
// Malformed specs, unknown names and bad arguments surface as Status
// errors, never CHECK aborts.

#ifndef RTQ_COMMON_REGISTRY_H_
#define RTQ_COMMON_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/spec.h"
#include "common/status.h"

namespace rtq {

/// `kNoun` ("policy", "scenario") only names the product in messages. It
/// must be an `inline constexpr` array: one object program-wide, so that
/// every translation unit names the same instantiation and Global().
template <typename Product, const char* kNoun>
class Registry {
 public:
  /// Builds the product for one parsed spec, reading its arguments with
  /// SpecArgs.
  using Factory = std::function<StatusOr<Product>(const Spec&)>;

  /// The process-wide registry all spec strings resolve against.
  static Registry& Global() {
    static auto* registry = new Registry();
    return *registry;
  }

  /// Registers `factory` under `name` with a one-line usage note
  /// ("minmax[:N] — MinMax-N, N omitted = unlimited"). InvalidArgument
  /// for an ill-formed name, FailedPrecondition for a duplicate.
  Status Register(const std::string& name, std::string help,
                  Factory factory) {
    if (!IsSpecName(name) || factory == nullptr) {
      return Status::InvalidArgument(
          "cannot register " + std::string(kNoun) + " '" + name +
          "': the name must match [a-z][a-z0-9-]* and the factory be set");
    }
    if (!entries_.emplace(name, Entry{std::move(help), std::move(factory)})
             .second) {
      return Status::FailedPrecondition(std::string(kNoun) + " '" + name +
                                        "' registered twice");
    }
    return Status::Ok();
  }

  bool Contains(const std::string& name) const {
    return entries_.count(name) > 0;
  }

  /// Parses `text` and invokes the named factory. InvalidArgument for a
  /// malformed spec, NotFound for an unregistered name, else the
  /// factory's result (an error prefixed with the spec).
  StatusOr<Product> Create(const std::string& text) const {
    StatusOr<Spec> spec = Spec::Parse(text);
    if (!spec.ok()) return Context(text, spec.status());
    auto it = entries_.find(spec.value().name);
    if (it == entries_.end()) {
      return Status::NotFound("unknown " + std::string(kNoun) + " '" +
                              spec.value().name + "'; registered: " + Help());
    }
    StatusOr<Product> product = it->second.factory(spec.value());
    if (!product.ok()) return Context(text, product.status());
    return product;
  }

  /// Registered names in deterministic (lexicographic) order.
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    for (const auto& entry : entries_) names.push_back(entry.first);
    return names;
  }

  /// Every entry's help line (its name when it has none), in Names()
  /// order, joined by "; ".
  std::string Help() const {
    std::string out;
    for (const auto& [name, entry] : entries_) {
      if (!out.empty()) out += "; ";
      out += entry.help.empty() ? name : entry.help;
    }
    return out;
  }

  /// Registers at static-initialization time; see RTQ_REGISTER.
  struct Registrar {
    Registrar(const std::string& name, std::string help, Factory factory) {
      Status status = Global().Register(name, std::move(help),
                                        std::move(factory));
      RTQ_CHECK_MSG(status.ok(), status.ToString().c_str());
    }
  };

 private:
  struct Entry {
    std::string help;
    Factory factory;
  };

  Registry() = default;

  static Status Context(const std::string& text, const Status& status) {
    return Status(status.code(), std::string(kNoun) + " spec '" + text +
                                     "': " + status.message());
  }

  std::map<std::string, Entry> entries_;
};

#define RTQ_REGISTRY_CONCAT_INNER(a, b) a##b
#define RTQ_REGISTRY_CONCAT(a, b) RTQ_REGISTRY_CONCAT_INNER(a, b)

/// Registers `factory` (a `registry::Factory` expression) under `name`
/// in `registry` when the enclosing translation unit is linked in:
///
///   RTQ_REGISTER(PolicyRegistry, "max", "max[:strict] — ...", MakeMax);
#define RTQ_REGISTER(registry, name, help, factory)               \
  static const registry::Registrar RTQ_REGISTRY_CONCAT(           \
      rtq_registrar_, __COUNTER__)(name, help, factory)

}  // namespace rtq

#endif  // RTQ_COMMON_REGISTRY_H_
