#include "workload/placement.h"

#include <cstdio>

#include "common/fnv.h"
#include "common/spec.h"

namespace rtq::workload {

namespace {

uint64_t HashId(QueryId id, uint64_t salt) {
  Fnv1a64 h;
  h.Update64(static_cast<uint64_t>(id));
  h.Update64(salt);
  return h.digest();
}

}  // namespace

StatusOr<ShardPlacement> ShardPlacement::Make(const std::string& spec,
                                              int32_t num_shards) {
  if (num_shards < 1)
    return Status::InvalidArgument("placement: num_shards must be >= 1");
  ShardPlacement p;
  p.num_shards_ = num_shards;

  StatusOr<Spec> parsed = Spec::Parse(spec);
  const std::string name = parsed.ok() ? parsed.value().name : "";
  SpecArgs args(parsed.ok() ? parsed.value().args : "");
  if (name == "hash") {
    p.kind_ = Kind::kHash;
  } else if (name == "range") {
    p.kind_ = Kind::kRange;
  } else if (name == "skew") {
    p.kind_ = Kind::kSkew;
    args.Take("hot", &p.hot_);
  } else {
    return Status::InvalidArgument("unknown placement \"" + spec +
                                   "\" (want hash, range, or skew[:hot=F])");
  }
  Status read = args.Finish();
  if (!read.ok())
    return Status::InvalidArgument("placement \"" + spec +
                                   "\": " + read.message());
  p.spec_ = name;
  if (p.kind_ == Kind::kSkew) {
    if (!(p.hot_ > 0.0) || p.hot_ > 1.0)
      return Status::InvalidArgument("placement \"" + spec +
                                     "\": hot must be in (0, 1]");
    char buf[48];
    std::snprintf(buf, sizeof(buf), "skew:hot=%.2f", p.hot_);
    p.spec_ = buf;
  }
  return p;
}

int32_t ShardPlacement::ShardOf(QueryId id, int64_t relation,
                                int64_t num_relations) const {
  if (num_shards_ == 1) return 0;
  switch (kind_) {
    case Kind::kHash:
      return static_cast<int32_t>(HashId(id, 0) %
                                  static_cast<uint64_t>(num_shards_));
    case Kind::kRange: {
      if (relation < 0 || num_relations <= 0) return 0;
      if (relation >= num_relations) relation = num_relations - 1;
      return static_cast<int32_t>(relation * num_shards_ / num_relations);
    }
    case Kind::kSkew: {
      // 53 high bits give a uniform double in [0, 1); arrivals under the
      // hot threshold pin to shard 0, the rest rehash over the others.
      double u = static_cast<double>(HashId(id, 1) >> 11) * 0x1.0p-53;
      if (u < hot_) return 0;
      return 1 + static_cast<int32_t>(HashId(id, 2) %
                                      static_cast<uint64_t>(num_shards_ - 1));
    }
  }
  return 0;
}

}  // namespace rtq::workload
