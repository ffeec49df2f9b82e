// Shows the memory-adaptive operators reacting to allocation changes,
// without the full system: a single hash join driven by a hand-rolled
// ExecContext, with the workspace shrunk mid-build and re-grown mid-probe
// (PPHJ contraction and expansion, paper Section 2.2).
//
//   $ ./build/examples/adaptive_operators

#include <cstdio>
#include <queue>

#include "exec/hash_join.h"
#include "storage/temp_space.h"

namespace {

// A minimal synchronous ExecContext: every demand completes instantly,
// time advances by a fixed cost per operation, and temp space is handed
// out from a bump allocator. Useful for studying operator behaviour in
// isolation (the unit tests use a richer version of the same idea).
class ToyContext : public rtq::exec::ExecContext {
 public:
  rtq::SimTime Now() const override { return now_; }

  void RunCpu(rtq::Instructions instructions,
              rtq::exec::DoneCallback done) override {
    now_ += static_cast<double>(instructions) / 40e6;
    pending_.push(std::move(done));
  }
  void Read(rtq::DiskId, rtq::PageCount, rtq::PageCount pages,
            rtq::exec::DoneCallback done) override {
    now_ += 0.012 + 0.0002 * static_cast<double>(pages);
    ++reads_;
    pages_read_ += pages;
    pending_.push(std::move(done));
  }
  // Spool writes are fire-and-forget: the operator never waits on one,
  // so there is no continuation to queue (`done` is always empty).
  void Write(rtq::DiskId, rtq::PageCount, rtq::PageCount pages,
             rtq::exec::DoneCallback /*done*/, bool /*background*/) override {
    now_ += 0.012 + 0.0002 * static_cast<double>(pages);
    ++writes_;
    pages_written_ += pages;
  }
  rtq::StatusOr<rtq::storage::TempFile> AllocateTemp(
      rtq::PageCount pages, rtq::DiskId) override {
    rtq::storage::TempFile f;
    f.disk = 0;
    f.start_page = next_temp_;
    f.pages = pages;
    next_temp_ += pages;
    return f;
  }
  void FreeTemp(const rtq::storage::TempFile&) override {}

  /// Drains one completion callback; returns false when idle.
  bool Pump() {
    if (pending_.empty()) return false;
    auto cb = std::move(pending_.front());
    pending_.pop();
    cb();
    return true;
  }

  int64_t reads_ = 0, writes_ = 0;
  rtq::PageCount pages_read_ = 0, pages_written_ = 0;

 private:
  rtq::SimTime now_ = 0.0;
  rtq::PageCount next_temp_ = 0;
  std::queue<rtq::exec::DoneCallback> pending_;
};

}  // namespace

int main() {
  using namespace rtq;

  exec::ExecParams params;  // paper defaults: F=1.1, 6-page blocks
  exec::HashJoin::Inputs inputs;
  inputs.r_pages = 1200;  // inner relation
  inputs.s_pages = 6000;  // outer relation
  inputs.s_start = 2000;

  exec::HashJoin join(params, inputs);
  std::printf("hash join ||R||=%lld ||S||=%lld: partitions=%lld "
              "min=%lld max=%lld pages\n",
              static_cast<long long>(inputs.r_pages),
              static_cast<long long>(inputs.s_pages),
              static_cast<long long>(join.num_partitions()),
              static_cast<long long>(join.min_memory()),
              static_cast<long long>(join.max_memory()));

  ToyContext ctx;
  bool finished = false;
  join.on_finished = [&] { finished = true; };

  // Start with the full workspace...
  join.SetAllocation(join.max_memory());
  join.Start(&ctx);

  int64_t step = 0;
  while (!finished && ctx.Pump()) {
    ++step;
    if (step == 50) {
      // ...shrink to the minimum mid-build (contraction + spooling)...
      std::printf("step %lld: shrink to min -> expanded partitions ",
                  static_cast<long long>(step));
      join.SetAllocation(join.min_memory());
      std::printf("%lld, spilled R pages so far %lld\n",
                  static_cast<long long>(join.expanded_partitions()),
                  static_cast<long long>(join.spilled_r_pages()));
    } else if (step == 600) {
      // ...and grow back mid-probe (expansion reloads build pages).
      std::printf("step %lld: grow to max -> expanded partitions ",
                  static_cast<long long>(step));
      join.SetAllocation(join.max_memory());
      std::printf("%lld (reload in progress)\n",
                  static_cast<long long>(join.expanded_partitions()));
    }
  }

  std::printf("finished at t=%.2f s: %lld reads (%lld pages), "
              "%lld writes (%lld pages)\n",
              ctx.Now(), static_cast<long long>(ctx.reads_),
              static_cast<long long>(ctx.pages_read_),
              static_cast<long long>(ctx.writes_),
              static_cast<long long>(ctx.pages_written_));
  std::printf("a full-memory run would read exactly %lld pages and write "
              "none;\nthe adaptation above costs the difference.\n",
              static_cast<long long>(inputs.r_pages + inputs.s_pages));
  return finished ? 0 : 1;
}
