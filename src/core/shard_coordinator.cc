#include "core/shard_coordinator.h"

#include "common/check.h"
#include "common/spec.h"

namespace rtq::core {

ShardCoordinator::ShardCoordinator(int32_t num_shards, int64_t global_mpl)
    : global_mpl_(global_mpl) {
  RTQ_CHECK_MSG(num_shards >= 1, "coordinator needs at least one shard");
  RTQ_CHECK_MSG(global_mpl >= 1, "global mpl must be >= 1");
  gates_.resize(static_cast<size_t>(num_shards));
  held_.assign(static_cast<size_t>(num_shards), 0);
  for (int32_t s = 0; s < num_shards; ++s) {
    gates_[static_cast<size_t>(s)].owner = this;
    gates_[static_cast<size_t>(s)].shard = s;
  }
}

AdmissionGate* ShardCoordinator::GateFor(int32_t shard) {
  RTQ_CHECK_MSG(shard >= 0 && shard < num_shards(), "bad shard index");
  return &gates_[static_cast<size_t>(shard)];
}

int64_t ShardCoordinator::held_by(int32_t shard) const {
  RTQ_CHECK_MSG(shard >= 0 && shard < num_shards(), "bad shard index");
  return held_[static_cast<size_t>(shard)];
}

bool ShardCoordinator::Gate::TryAcquire() { return owner->TryAcquire(shard); }
void ShardCoordinator::Gate::Release() { owner->Release(shard); }

bool ShardCoordinator::TryAcquire(int32_t shard) {
  if (in_use_ >= global_mpl_) {
    ++refusals_;
    return false;
  }
  ++in_use_;
  ++held_[static_cast<size_t>(shard)];
  if (in_use_ > high_water_) high_water_ = in_use_;
  return true;
}

void ShardCoordinator::Release(int32_t shard) {
  RTQ_CHECK_MSG(held_[static_cast<size_t>(shard)] > 0,
                "releasing a slot the shard does not hold");
  --in_use_;
  --held_[static_cast<size_t>(shard)];
}

StatusOr<int64_t> ParseAdmissionSpec(const std::string& spec) {
  if (spec == "local") return static_cast<int64_t>(0);
  int64_t mpl = 0;
  if (spec.rfind("global:", 0) == 0) {
    SpecArgs args(spec.substr(7));
    args.Take("mpl", &mpl);
    Status read = args.Finish();
    if (!read.ok())
      return Status::InvalidArgument("admission \"" + spec +
                                     "\": " + read.message());
  }
  if (mpl < 1)
    return Status::InvalidArgument("bad admission spec \"" + spec +
                                   "\" (want local or global:mpl=N, N >= 1)");
  return mpl;
}

}  // namespace rtq::core
