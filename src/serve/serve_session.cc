#include "serve/serve_session.h"

#include "common/spec.h"
#include "core/policy_registry.h"
#include "harness/paper_experiments.h"
#include "workload/scenario.h"

namespace rtq::serve {

StatusOr<engine::SystemConfig> ServeSession::BuildConfig(
    const SessionSpec& spec) {
  // Validate the policy spec up front: the registry is the authority on
  // the grammar, and a bad spec must fail here, not CHECK inside Rtdbs.
  auto policy = core::PolicyRegistry::Global().Create(spec.policy);
  if (!policy.ok()) return policy.status();
  engine::PolicyConfig pc(spec.policy);

  const std::string& w = spec.workload;
  StatusOr<Spec> parsed = Spec::Parse(w);
  const std::string kind = parsed.ok() ? parsed.value().name : "";
  const std::string rest = parsed.ok() ? parsed.value().args : "";

  if (kind == "baseline" || kind == "multiclass") {
    double rate = 0.0;
    SpecArgs args(rest);
    args.Take("rate", &rate);
    Status read = args.Finish();
    if (!read.ok())
      return Status::InvalidArgument("workload '" + w + "': " +
                                     read.message());
    if (rate <= 0.0)
      return Status::InvalidArgument("workload '" + w + "': expected '" +
                                     kind + ":rate=R' with R > 0");
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
  engine::ShardConfig shards;
  shards.num_shards = spec.shards;
  shards.placement = spec.placement;
  shards.admission = spec.admission;
  auto cluster = engine::ShardedRtdbs::Create(config.value(), shards);
  if (!cluster.ok()) return cluster.status();
  return std::unique_ptr<ServeSession>(
      new ServeSession(spec, std::move(cluster).value()));
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
  s->cluster_->AppendStateDigest(&digest);
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

engine::PolicySwapOutcome ServeSession::ApplyPolicy(const std::string& spec) {
  // Shard 0 probes the spec. Whenever it attached a fresh instance — the
  // new policy, or the incumbent rebuilt after an attach failure — every
  // other shard, built from the same config, swaps the same way, so the
  // shards never disagree and replaying the journal entry reproduces
  // all of them.
  engine::PolicySwapOutcome out = cluster_->shard(0).SwapPolicy(spec);
  if (!out.reattached) return out;
  for (int32_t s = 1; s < cluster_->num_shards(); ++s) {
    engine::PolicySwapOutcome rest = cluster_->shard(s).SwapPolicy(spec);
    RTQ_CHECK_MSG(rest.reattached && rest.active_spec == out.active_spec,
                  "shards disagree on a policy swap");
  }
  journal_.push_back(JournalEntry{events(), "policy", out.active_spec});
  return out;
}

StatusOr<std::string> ServeSession::ApplyScenario(const std::string& spec) {
  // Same protocol as ApplyPolicy. Every shard forks the new source from
  // its own live rng; those streams are identical across shards (same
  // genesis seed), so filtered replication still sees one global arrival
  // process.
  StatusOr<std::string> canonical = cluster_->shard(0).SwapScenario(spec);
  if (!canonical.ok()) return canonical;
  for (int32_t s = 1; s < cluster_->num_shards(); ++s) {
    auto rest = cluster_->shard(s).SwapScenario(spec);
    RTQ_CHECK_MSG(rest.ok(),
                  "scenario spec accepted by shard 0 but rejected later");
  }
  journal_.push_back(JournalEntry{events(), "scenario", canonical.value()});
  return canonical;
}

Snapshot ServeSession::TakeSnapshot() const {
  Snapshot snap;
  snap.session = spec_;
  snap.journal = journal_;
  snap.position_events = events();
  snap.position_time = cluster_->Now();
  cluster_->AppendStateDigest(&snap.digest);
  return snap;
}

Status ServeSession::StepTo(uint64_t target) {
  const uint64_t at = events();
  if (at < target && RunEvents(target - at) < target - at)
    return Status::Internal(
        "snapshot position unreachable: event calendar drained at " +
        std::to_string(events()) + " of " + std::to_string(target));
  return Status::Ok();
}

}  // namespace rtq::serve
