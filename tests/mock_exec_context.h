// A deterministic synchronous ExecContext for operator unit tests.
//
// Demands complete when the test pumps the queue; time advances by simple
// fixed costs. Temp space is a bump allocator with free tracking so tests
// can assert that operators release what they take.

#ifndef RTQ_TESTS_MOCK_EXEC_CONTEXT_H_
#define RTQ_TESTS_MOCK_EXEC_CONTEXT_H_

#include <queue>
#include <set>

#include "common/check.h"
#include "exec/exec_context.h"

namespace rtq::testing {

class MockExecContext : public exec::ExecContext {
 public:
  SimTime Now() const override { return now_; }

  void RunCpu(Instructions instructions, exec::DoneCallback done) override {
    now_ += static_cast<double>(instructions) / 40e6;
    total_instructions += instructions;
    pending_.push(std::move(done));
  }

  void Read(DiskId disk, PageCount start, PageCount pages,
            exec::DoneCallback done) override {
    (void)disk;
    last_read_start = start;
    last_read_pages = pages;
    now_ += 0.0195 + 0.00185 * static_cast<double>(pages);
    ++reads;
    pages_read += pages;
    pending_.push(std::move(done));
  }

  /// Fire-and-forget, as in the engine: nothing waits on a write. Its
  /// completion still takes one Pump, so a test's step counts cover it.
  void Write(DiskId disk, PageCount start, PageCount pages,
             exec::DoneCallback done, bool background) override {
    (void)disk;
    (void)start;
    RTQ_CHECK(!done && background);
    now_ += 0.0195 + 0.00185 * static_cast<double>(pages);
    ++writes;
    pages_written += pages;
    pending_.push(nullptr);
  }

  StatusOr<storage::TempFile> AllocateTemp(PageCount pages,
                                           DiskId preferred) override {
    if (fail_temp) return Status::OutOfRange("mock: temp exhausted");
    storage::TempFile f;
    f.disk = preferred >= 0 ? preferred : 0;
    f.start_page = next_temp_;
    f.pages = pages;
    f.handle = static_cast<uint64_t>(next_temp_) + 1;
    next_temp_ += pages;
    live_temp_.insert(f.handle);
    temp_allocations++;
    return f;
  }

  void FreeTemp(const storage::TempFile& file) override {
    live_temp_.erase(file.handle);
  }

  /// Completes one pending demand, running its callback if it has one;
  /// false when idle.
  bool Pump() {
    if (pending_.empty()) return false;
    auto cb = std::move(pending_.front());
    pending_.pop();
    if (cb) cb();
    return true;
  }

  /// Runs callbacks until idle or `limit` steps.
  int64_t PumpAll(int64_t limit = 1'000'000) {
    int64_t n = 0;
    while (n < limit && Pump()) ++n;
    return n;
  }

  size_t pending() const { return pending_.size(); }
  int64_t live_temp_extents() const {
    return static_cast<int64_t>(live_temp_.size());
  }

  // Counters the tests assert on.
  int64_t reads = 0;
  int64_t writes = 0;
  PageCount pages_read = 0;
  PageCount pages_written = 0;
  Instructions total_instructions = 0;
  int64_t temp_allocations = 0;
  PageCount last_read_start = -1;
  PageCount last_read_pages = -1;
  bool fail_temp = false;

 private:
  SimTime now_ = 0.0;
  PageCount next_temp_ = 1'000'000;
  std::queue<exec::DoneCallback> pending_;
  std::set<uint64_t> live_temp_;
};

}  // namespace rtq::testing

#endif  // RTQ_TESTS_MOCK_EXEC_CONTEXT_H_
