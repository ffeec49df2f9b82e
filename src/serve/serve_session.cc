#include "serve/serve_session.h"

#include <cmath>
#include <cstdlib>

#include "core/policy_registry.h"
#include "harness/paper_experiments.h"
#include "workload/scenario_registry.h"

namespace rtq::serve {

namespace {

bool ParsePositiveDouble(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return false;
  if (!std::isfinite(v) || v <= 0.0) return false;
  *out = v;
  return true;
}

}  // namespace

StatusOr<engine::SystemConfig> ServeSession::BuildConfig(
    const SessionSpec& spec) {
  // Validate the policy spec up front: the registry is the authority on
  // the grammar, and a bad spec must fail here, not CHECK inside Rtdbs.
  auto policy = core::PolicyRegistry::Global().Create(spec.policy);
  if (!policy.ok()) return policy.status();
  engine::PolicyConfig pc(spec.policy);

  const std::string& w = spec.workload;
  size_t colon = w.find(':');
  std::string kind = colon == std::string::npos ? w : w.substr(0, colon);
  std::string rest = colon == std::string::npos ? "" : w.substr(colon + 1);

  if (kind == "baseline" || kind == "multiclass") {
    if (rest.rfind("rate=", 0) != 0)
      return Status::InvalidArgument("workload '" + w + "': expected '" +
                                     kind + ":rate=<queries/sec>'");
    double rate = 0.0;
    if (!ParsePositiveDouble(rest.substr(5), &rate))
      return Status::InvalidArgument("workload '" + w +
                                     "': rate must be a positive number");
    return kind == "baseline" ? harness::BaselineConfig(rate, pc, spec.seed)
                              : harness::MulticlassConfig(rate, pc, spec.seed);
  }
  if (kind == "scenario") {
    if (rest.empty())
      return Status::InvalidArgument(
          "workload 'scenario:' needs a scenario spec");
    auto scenario = workload::ScenarioRegistry::Global().Create(rest);
    if (!scenario.ok()) return scenario.status();
    // The serve twin of harness::ScenarioConfig, minus its CHECK on the
    // spec (live input must degrade to a Status, never abort).
    engine::SystemConfig config = harness::WorkloadChangeConfig(pc, spec.seed);
    config.scenario = std::move(scenario).value();
    return config;
  }
  return Status::InvalidArgument(
      "unknown workload '" + w +
      "' (baseline:rate=R | multiclass:rate=R | scenario:SPEC)");
}

StatusOr<std::unique_ptr<ServeSession>> ServeSession::Create(
    const SessionSpec& spec) {
  auto config = BuildConfig(spec);
  if (!config.ok()) return config.status();
  if (spec.shards > 1) {
    engine::ShardConfig shard_config;
    shard_config.num_shards = spec.shards;
    shard_config.placement = spec.placement;
    shard_config.admission = spec.admission;
    auto cluster = engine::ShardedRtdbs::Create(config.value(), shard_config);
    if (!cluster.ok()) return cluster.status();
    return std::unique_ptr<ServeSession>(
        new ServeSession(spec, std::move(cluster).value()));
  }
  auto sys = engine::Rtdbs::Create(config.value());
  if (!sys.ok()) return sys.status();
  return std::unique_ptr<ServeSession>(
      new ServeSession(spec, std::move(sys).value()));
}

StatusOr<std::unique_ptr<ServeSession>> ServeSession::Restore(
    const Snapshot& snapshot) {
  auto created = Create(snapshot.session);
  if (!created.ok()) return created.status();
  std::unique_ptr<ServeSession> s = std::move(created).value();

  // Replay every journaled command at the event count it was originally
  // applied at. Re-applying re-journals, so a faithful replay rebuilds
  // the journal too — any divergence means the snapshot lied.
  for (const JournalEntry& e : snapshot.journal) {
    Status at = s->StepTo(e.events);
    if (!at.ok()) return at;
    if (e.command == "policy") {
      engine::PolicySwapOutcome out = s->ApplyPolicy(e.arg);
      if (!out.status.ok())
        return Status::Internal("journal replay: policy '" + e.arg +
                                "' rejected: " + out.status.message());
    } else {  // "scenario" — ParseSnapshot admits no other command
      auto canonical = s->ApplyScenario(e.arg);
      if (!canonical.ok())
        return Status::Internal("journal replay: scenario '" + e.arg +
                                "' rejected: " + canonical.status().message());
    }
    if (s->journal_.empty() || s->journal_.back() != e)
      return Status::Internal("journal replay diverged at '" + e.command +
                              " " + e.arg + "'");
  }

  Status at = s->StepTo(snapshot.position_events);
  if (!at.ok()) return at;

  // The digest is the proof obligation: every line of the rebuilt
  // session's state must match what the snapshot recorded.
  std::vector<std::string> digest;
  s->sys_->AppendStateDigest(&digest);
  if (digest.size() != snapshot.digest.size())
    return Status::Internal(
        "restore digest mismatch: snapshot has " +
        std::to_string(snapshot.digest.size()) + " lines, rebuilt state has " +
        std::to_string(digest.size()));
  for (size_t i = 0; i < digest.size(); ++i) {
    if (digest[i] != snapshot.digest[i])
      return Status::Internal("restore digest mismatch at line " +
                              std::to_string(i + 1) + ": snapshot '" +
                              snapshot.digest[i] + "' vs rebuilt '" +
                              digest[i] + "'");
  }
  return s;
}

uint64_t ServeSession::RunEvents(uint64_t n) {
  if (sharded()) return cluster_->StepEvents(n);
  uint64_t stepped = 0;
  while (stepped < n && sys_->StepEvent()) ++stepped;
  return stepped;
}

engine::PolicySwapOutcome ServeSession::ApplyPolicy(const std::string& spec) {
  engine::PolicySwapOutcome out;
  if (sharded()) {
    // Every shard swaps, or none: shard 0 probes the spec; the remaining
    // shards only swap after it succeeded. A rollback on shard 0 leaves
    // the whole cluster on the incumbent policy.
    out = cluster_->shard(0).SwapPolicy(spec);
    if (out.status.ok()) {
      for (int32_t s = 1; s < cluster_->num_shards(); ++s) {
        engine::PolicySwapOutcome rest = cluster_->shard(s).SwapPolicy(spec);
        RTQ_CHECK_MSG(rest.status.ok(),
                      "policy spec accepted by shard 0 but rejected later");
      }
    }
  } else {
    out = sys_->SwapPolicy(spec);
  }
  // Journal whenever a fresh instance was attached — including the
  // rollback after an attach failure, which resets adaptive state and
  // must therefore be reproduced by a replay.
  if (out.reattached)
    journal_.push_back(JournalEntry{events(), "policy", out.active_spec});
  return out;
}

StatusOr<std::string> ServeSession::ApplyScenario(const std::string& spec) {
  StatusOr<std::string> canonical = Status::Internal("unset");
  if (sharded()) {
    // Same protocol as ApplyPolicy. Every shard forks the new source
    // from its own live rng; those streams are identical across shards
    // (same genesis seed), so filtered replication still sees one global
    // arrival process.
    canonical = cluster_->shard(0).SwapScenario(spec);
    if (canonical.ok()) {
      for (int32_t s = 1; s < cluster_->num_shards(); ++s) {
        auto rest = cluster_->shard(s).SwapScenario(spec);
        RTQ_CHECK_MSG(rest.ok(),
                      "scenario spec accepted by shard 0 but rejected later");
      }
    }
  } else {
    canonical = sys_->SwapScenario(spec);
  }
  if (canonical.ok())
    journal_.push_back(JournalEntry{events(), "scenario", canonical.value()});
  return canonical;
}

StatusOr<Snapshot> ServeSession::TakeSnapshot() {
  if (sharded())
    return Status::Unimplemented(
        "snapshot of a sharded session: the .rtqs format has no shard "
        "fields yet; run with --shards=1 to snapshot");
  Snapshot snap;
  snap.session = spec_;
  snap.journal = journal_;
  snap.position_events = events();
  snap.position_time = sys_->simulator().Now();
  sys_->AppendStateDigest(&snap.digest);
  return snap;
}

Status ServeSession::StepTo(uint64_t target) {
  while (events() < target) {
    if (!sys_->StepEvent())
      return Status::Internal(
          "snapshot position unreachable: event calendar drained at " +
          std::to_string(events()) + " of " + std::to_string(target));
  }
  return Status::Ok();
}

}  // namespace rtq::serve
