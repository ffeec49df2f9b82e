// The abstract arrival stream feeding the engine (paper Figure 2's
// Source box, generalized).
//
// Two implementations exist: the live scenario generator
// (workload/scenario.h), which also runs the paper's stationary Poisson
// workload as a constant-shape scenario (PoissonScenario), and the
// deterministic trace replayer (workload/trace_source.h). The engine
// only sees this interface: Start() begins scheduling arrival events on
// the simulator, and every constructed (descriptor, operator) pair is
// handed over through the Sink callback.

#ifndef RTQ_WORKLOAD_ARRIVAL_SOURCE_H_
#define RTQ_WORKLOAD_ARRIVAL_SOURCE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "workload/query_builder.h"

namespace rtq::workload {

class ArrivalSource {
 public:
  /// One arrival: the fully-resolved blueprint plus the engine-wide
  /// sequential query id. The consumer materializes the
  /// (descriptor, operator) pair itself — the engine builds it into the
  /// query's arena (BuildQueryInArena), tests and the trace renderer use
  /// the heap variant (BuildQuery); both are bit-identical.
  using Sink = std::function<void(const QueryBlueprint&, QueryId)>;

  virtual ~ArrivalSource() = default;

  /// Begins generating arrivals. Must be called at most once, before the
  /// simulation runs.
  virtual void Start() = 0;

  /// Permanently silences the stream: already-scheduled arrival events
  /// become no-ops when they fire (they are not cancelled, so the event
  /// calendar and dispatch counts stay identical either way — the
  /// property live scenario swaps rely on for deterministic replay).
  virtual void Stop() = 0;

  /// Number of queries emitted so far. A source swapped in mid-run
  /// continues the predecessor's id space (set_first_query_id), so after
  /// a swap this is the cumulative count across the chain.
  virtual int64_t generated() const = 0;

  /// Appends one line per internal state dimension (cursors, per-class
  /// stream states, rng fingerprints) to `out`. Snapshot digests compare
  /// these lines to prove the arrival stream was restored exactly.
  virtual void AppendStateDigest(std::vector<std::string>* out) const = 0;
};

}  // namespace rtq::workload

#endif  // RTQ_WORKLOAD_ARRIVAL_SOURCE_H_
