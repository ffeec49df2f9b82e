#include "harness/metrics_streamer.h"

#include <limits>

#include "harness/bench_json.h"

namespace rtq::harness {

void MetricsStreamer::Emit(engine::Rtdbs& sys, double wall_seconds) {
  const engine::ClassSummary overall = sys.metrics().Overall();
  const int64_t d_completed = overall.completions - last_completed_;
  const int64_t d_missed = overall.misses - last_missed_;
  last_completed_ = overall.completions;
  last_missed_ = overall.misses;

  uint64_t events = sys.simulator().events_dispatched();
  double d_wall = wall_seconds - last_wall_;
  double rate = (lines_ > 0 && d_wall > 0.0)
                    ? static_cast<double>(events - last_events_) / d_wall
                    : std::numeric_limits<double>::quiet_NaN();
  last_events_ = events;
  last_wall_ = wall_seconds;

  core::MemoryManager& mm = sys.memory_manager();
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("rtq-serve-metrics-3");
  if (shard_ >= 0) w.Key("shard").Int(shard_);
  w.Key("t").Number(sys.simulator().Now());
  w.Key("events").Int(static_cast<int64_t>(events));
  w.Key("pending").Int(static_cast<int64_t>(sys.simulator().pending_events()));
  w.Key("live").Int(sys.live_queries());
  // Runtime-recycling health (schema v2): `retired` is the instantaneous
  // parked-awaiting-reuse count (bounded; a growing value would signal a
  // purge bug), `recycled` the lifetime number of arena-reset reuses.
  w.Key("retired").Int(sys.retired_runtimes());
  w.Key("recycled").Int(sys.runtimes_recycled());
  w.Key("admitted").Int(mm.admitted_count());
  w.Key("waiting").Int(mm.waiting_count());
  w.Key("generated").Int(sys.arrivals().generated());
  w.Key("completed").Int(overall.completions);
  w.Key("missed").Int(overall.misses);
  w.Key("miss_ratio").Number(overall.miss_ratio);
  w.Key("d_completed").Int(d_completed);
  w.Key("d_missed").Int(d_missed);
  if (shard_ >= 0) w.Key("routed_elsewhere").Int(sys.routed_elsewhere());
  w.Key("allocated_pages").Int(mm.allocated_pages());
  w.Key("policy").String(sys.policy().Describe());
  w.Key("wall_seconds").Number(wall_seconds);
  w.Key("events_per_sec").Number(rate);
  w.EndObject();

  std::fprintf(out_, "%s\n", w.str().c_str());
  std::fflush(out_);
  ++lines_;
}

}  // namespace rtq::harness
