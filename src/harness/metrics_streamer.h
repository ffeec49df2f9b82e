// Periodic JSON-lines metrics for long-running (serve-mode) engines.
//
// BenchJsonEmitter writes one document per finished sweep; a server that
// never finishes needs the dual: one self-contained JSON object per
// emission, appended to a stream, parseable with nothing smarter than
// line-splitting (`jq`, `grep`, a dashboard tailer). Each line carries
// cumulative counters plus deltas over the window since the previous
// line, read from the engine's running metrics summary — emission cost
// does not grow with run length, so a soak test can stream for hours.
//
// Line schema (field order fixed; schema bumps on any change):
//   {"schema":"rtq-serve-metrics-3",["shard":<i>,]"t":<sim seconds>,
//    "events":<n>,"pending":<n>,"live":<n>,"retired":<n>,"recycled":<n>,
//    "admitted":<n>,"waiting":<n>,
//    "generated":<n>,"completed":<n>,"missed":<n>,"miss_ratio":<r>,
//    "d_completed":<n>,"d_missed":<n>,["routed_elsewhere":<n>,]
//    "allocated_pages":<n>,
//    "policy":"<spec>","wall_seconds":<s>,"events_per_sec":<r>}
//
// "events_per_sec" is the wall-clock dispatch rate over the delta
// window (null on the first line and in windows with no wall time).
// v2 added "retired"/"recycled": the query-runtime recycling gauges
// (parked runtimes awaiting reuse, lifetime arena-reset reuses) that
// back the allocation-free steady state. v3 added the optional
// sharding fields: a serve session with more than one shard streams one
// line per shard per emission, tagged with "shard" and the shard's
// filtered-arrival drop count "routed_elsewhere"; one-shard sessions
// omit both.

#ifndef RTQ_HARNESS_METRICS_STREAMER_H_
#define RTQ_HARNESS_METRICS_STREAMER_H_

#include <cstdint>
#include <cstdio>

#include "engine/rtdbs.h"

namespace rtq::harness {

class MetricsStreamer {
 public:
  /// Streams to `out` (not owned; typically stdout or a log file).
  /// `shard` >= 0 tags every line with that shard index (one streamer
  /// per shard keeps the delta baselines independent); -1 omits the
  /// sharding fields.
  explicit MetricsStreamer(std::FILE* out, int32_t shard = -1)
      : out_(out), shard_(shard) {}

  /// Appends one metrics line for the system's current state and
  /// flushes, so a tailing consumer sees it immediately.
  void Emit(engine::Rtdbs& sys, double wall_seconds);

  int64_t lines_emitted() const { return lines_; }

 private:
  std::FILE* out_;
  int32_t shard_ = -1;
  /// Totals at the previous line, the baselines of its deltas.
  int64_t last_completed_ = 0;
  int64_t last_missed_ = 0;
  uint64_t last_events_ = 0;
  double last_wall_ = 0.0;
  int64_t lines_ = 0;
};

}  // namespace rtq::harness

#endif  // RTQ_HARNESS_METRICS_STREAMER_H_
