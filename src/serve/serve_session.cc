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
    RTQ_RETURN_IF_ERROR(s->StepTo(e.events));
    auto canonical = s->Apply(e.command, e.arg);
    if (!canonical.ok())
      return Status::Internal("journal replay: " + e.command + " '" + e.arg +
                              "' rejected: " + canonical.status().message());
    if (s->journal_.back() != e)
      return Status::Internal("journal replay diverged at '" + e.command +
                              " " + e.arg + "'");
  }

  RTQ_RETURN_IF_ERROR(s->StepTo(snapshot.position_events));

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

StatusOr<std::string> ServeSession::Apply(const std::string& command,
                                          const std::string& spec) {
  // Shard 0 tries the spec; a failure has changed nothing anywhere.
  // Every shard is built from the same config, so the others then swap
  // the same way and the journal entry replays all of them. New sources
  // fork from each shard's own live rng, and those streams match across
  // shards (same genesis seed), so filtered replication still sees one
  // global arrival process.
  auto swap = [&](engine::Rtdbs& shard) {
    return command == "policy" ? shard.SwapPolicy(spec)
                               : shard.SwapScenario(spec);
  };
  StatusOr<std::string> canonical = swap(cluster_->shard(0));
  if (!canonical.ok()) return canonical;
  for (int32_t s = 1; s < cluster_->num_shards(); ++s) {
    StatusOr<std::string> rest = swap(cluster_->shard(s));
    RTQ_CHECK_MSG(rest.ok() && rest.value() == canonical.value(),
                  "shards disagree on a swap");
  }
  journal_.push_back(JournalEntry{events(), command, canonical.value()});
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
