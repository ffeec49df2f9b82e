#include "model/cpu.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace rtq::model {
namespace {

TEST(Cpu, SingleJobTiming) {
  sim::Simulator sim;
  Cpu cpu(&sim, 40.0);
  SimTime done = -1.0;
  cpu.Submit(CpuJob{1, 10.0, 40'000'000, [&] { done = sim.Now(); }});
  sim.RunToCompletion();
  EXPECT_NEAR(done, 1.0, 1e-9);  // 40M instructions at 40 MIPS
  EXPECT_EQ(cpu.completed_jobs(), 1);
}

TEST(Cpu, ExecutionTimeHelper) {
  sim::Simulator sim;
  Cpu cpu(&sim, 40.0);
  EXPECT_NEAR(cpu.ExecutionTime(40'000'000), 1.0, 1e-12);
  EXPECT_NEAR(cpu.ExecutionTime(1000), 1000.0 / 40e6, 1e-15);
}

TEST(Cpu, EarliestDeadlineRunsFirst) {
  sim::Simulator sim;
  Cpu cpu(&sim, 1.0);  // 1 MIPS for easy numbers
  std::vector<int> order;
  cpu.Submit(CpuJob{1, 300.0, 1'000'000, [&] { order.push_back(1); }});
  cpu.Submit(CpuJob{2, 100.0, 1'000'000, [&] { order.push_back(2); }});
  cpu.Submit(CpuJob{3, 200.0, 1'000'000, [&] { order.push_back(3); }});
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(Cpu, PreemptionPausesRunningJob) {
  sim::Simulator sim;
  Cpu cpu(&sim, 1.0);
  std::vector<std::pair<int, SimTime>> done;
  // Long low-priority job starts alone.
  cpu.Submit(CpuJob{1, 900.0, 10'000'000, [&] {
    done.emplace_back(1, sim.Now());
  }});
  // At t=2, an urgent 3s job arrives and preempts.
  sim.ScheduleAfter(2.0, [&] {
    cpu.Submit(CpuJob{2, 10.0, 3'000'000, [&] {
      done.emplace_back(2, sim.Now());
    }});
  });
  sim.RunToCompletion();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, 2);
  EXPECT_NEAR(done[0].second, 5.0, 1e-9);   // 2 + 3
  EXPECT_EQ(done[1].first, 1);
  EXPECT_NEAR(done[1].second, 13.0, 1e-9);  // 10 total work + 3 preempted
  EXPECT_EQ(cpu.preemptions(), 1);
}

TEST(Cpu, LaterDeadlineDoesNotPreempt) {
  sim::Simulator sim;
  Cpu cpu(&sim, 1.0);
  std::vector<int> order;
  cpu.Submit(CpuJob{1, 10.0, 5'000'000, [&] { order.push_back(1); }});
  sim.ScheduleAfter(1.0, [&] {
    cpu.Submit(CpuJob{2, 20.0, 1'000'000, [&] { order.push_back(2); }});
  });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(cpu.preemptions(), 0);
}

TEST(Cpu, CancelQueryRemovesJobs) {
  sim::Simulator sim;
  Cpu cpu(&sim, 1.0);
  int fired = 0;
  cpu.Submit(CpuJob{1, 10.0, 1'000'000, [&] { ++fired; }});
  cpu.Submit(CpuJob{2, 20.0, 1'000'000, [&] { ++fired; }});
  cpu.Submit(CpuJob{2, 30.0, 1'000'000, [&] { ++fired; }});
  EXPECT_EQ(cpu.CancelQuery(2), 2);
  sim.RunToCompletion();
  EXPECT_EQ(fired, 1);
}

TEST(Cpu, CancelRunningJobStartsNext) {
  sim::Simulator sim;
  Cpu cpu(&sim, 1.0);
  std::vector<std::pair<int, SimTime>> done;
  cpu.Submit(CpuJob{1, 10.0, 10'000'000, [&] {
    done.emplace_back(1, sim.Now());
  }});
  cpu.Submit(CpuJob{2, 20.0, 2'000'000, [&] {
    done.emplace_back(2, sim.Now());
  }});
  sim.ScheduleAfter(3.0, [&] { cpu.CancelQuery(1); });
  sim.RunToCompletion();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].first, 2);
  EXPECT_NEAR(done[0].second, 5.0, 1e-9);  // starts at 3, runs 2s
  // Stopping the running job mid-execution counts as a preemption.
  EXPECT_EQ(cpu.preemptions(), 1);
}

TEST(Cpu, DeadlineTieBreaksByQueryId) {
  sim::Simulator sim;
  Cpu cpu(&sim, 1.0);
  std::vector<int> order;
  cpu.Submit(CpuJob{7, 50.0, 1'000'000, [&] { order.push_back(7); }});
  cpu.Submit(CpuJob{3, 50.0, 1'000'000, [&] { order.push_back(3); }});
  sim.RunToCompletion();
  // Query 7 was already running (non-preemptive among equals), then 3.
  EXPECT_EQ(order, (std::vector<int>{7, 3}));
}

TEST(Cpu, UtilizationAccounting) {
  sim::Simulator sim;
  Cpu cpu(&sim, 1.0);
  cpu.Submit(CpuJob{1, 10.0, 4'000'000, [] {}});
  sim.RunToCompletion();
  EXPECT_NEAR(cpu.busy_seconds(sim.Now()), 4.0, 1e-9);
  sim.RunUntil(8.0);
  EXPECT_NEAR(cpu.Utilization(sim.Now()), 0.5, 1e-9);
}

TEST(Cpu, ZeroInstructionJobCompletesImmediately) {
  sim::Simulator sim;
  Cpu cpu(&sim, 40.0);
  bool fired = false;
  cpu.Submit(CpuJob{1, 10.0, 0, [&] { fired = true; }});
  sim.RunToCompletion();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.Now(), 0.0);
}

TEST(Cpu, ManyPreemptionsConserveWork) {
  sim::Simulator sim;
  Cpu cpu(&sim, 1.0);
  SimTime low_done = -1.0;
  cpu.Submit(CpuJob{100, 1e9, 10'000'000, [&] { low_done = sim.Now(); }});
  // Five urgent 1s jobs arrive at 1s intervals, each preempting.
  for (int i = 1; i <= 5; ++i) {
    sim.ScheduleAfter(2.0 * i, [&cpu, i] {
      cpu.Submit(CpuJob{static_cast<QueryId>(i), 10.0 * i, 1'000'000, [] {}});
    });
  }
  sim.RunToCompletion();
  // Total work 10 + 5 = 15 seconds.
  EXPECT_NEAR(low_done, 15.0, 1e-9);
}

// Randomized Submit/CancelQuery/advance interleavings checked against a
// reference written from the header contract alone (the same pattern as
// the EventQueue and DiskCache fuzz tests): an ordered map keyed on
// (deadline, query, submission order) whose first entry runs, strictly
// earlier deadlines preempt with credited instructions, and cancelling
// the running job counts as a preemption. Coarse deadlines and few query
// ids force ties at every level. Fixed seeds so failures reproduce.
TEST(Cpu, FuzzMatchesMapReferenceModel) {
  struct Key {
    SimTime deadline;
    QueryId query;
    uint64_t seq;
    bool operator<(const Key& o) const {
      if (deadline != o.deadline) return deadline < o.deadline;
      if (query != o.query) return query < o.query;
      return seq < o.seq;
    }
  };
  struct RefJob {
    double remaining;
    int payload;
  };
  constexpr double kMips = 2.0;
  constexpr double kRate = kMips * 1e6;
  for (uint64_t seed : {1u, 7u, 99u, 1234u}) {
    Rng rng(seed);
    sim::Simulator sim;
    Cpu cpu(&sim, kMips);
    std::vector<std::pair<int, SimTime>> got;

    std::map<Key, RefJob> jobs;
    bool running = false;
    Key running_key{};
    SimTime since = 0.0;
    int64_t preemptions = 0;
    uint64_t seq = 0;
    std::vector<std::pair<int, SimTime>> want;
    auto start = [&](SimTime now) {
      if (jobs.empty()) return;
      running = true;
      running_key = jobs.begin()->first;
      since = now;
    };
    auto preempt = [&](SimTime now) {
      RefJob& job = jobs.at(running_key);
      job.remaining -= (now - since) * kRate;
      if (job.remaining < 0.0) job.remaining = 0.0;
      running = false;
      ++preemptions;
    };
    auto advance_to = [&](SimTime t) {
      while (running) {
        const RefJob& job = jobs.at(running_key);
        const SimTime end = since + job.remaining / kRate;
        if (end > t) break;
        want.emplace_back(job.payload, end);
        jobs.erase(running_key);
        running = false;
        start(end);
      }
    };

    int next_payload = 0;
    for (int step = 0; step < 3000; ++step) {
      const int64_t op = rng.UniformInt(0, 9);
      const SimTime now = sim.Now();
      if (op < 5) {
        const SimTime deadline = static_cast<double>(rng.UniformInt(1, 6));
        const auto query = static_cast<QueryId>(rng.UniformInt(1, 4));
        const Instructions instructions = rng.UniformInt(0, 4) * 500'000;
        const int payload = next_payload++;
        CpuJob job;
        job.query = query;
        job.deadline = deadline;
        job.instructions = instructions;
        job.on_complete = [&got, &sim, payload] {
          got.emplace_back(payload, sim.Now());
        };
        cpu.Submit(std::move(job));
        jobs[Key{deadline, query, seq++}] =
            RefJob{static_cast<double>(instructions), payload};
        if (running && deadline < running_key.deadline) preempt(now);
        if (!running) start(now);
      } else if (op < 7) {
        const auto query = static_cast<QueryId>(rng.UniformInt(1, 4));
        if (running && running_key.query == query) preempt(now);
        int64_t removed = 0;
        for (auto it = jobs.begin(); it != jobs.end();) {
          if (it->first.query == query) {
            it = jobs.erase(it);
            ++removed;
          } else {
            ++it;
          }
        }
        if (!running) start(now);
        ASSERT_EQ(cpu.CancelQuery(query), removed)
            << "seed " << seed << " step " << step;
      } else {
        // Half-second strides land on job boundaries now and then.
        const int64_t halves = rng.UniformInt(0, 3);
        const SimTime until = now + 0.5 * static_cast<double>(halves);
        sim.RunUntil(until);
        advance_to(until);
      }
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " step " << step;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].first, want[i].first) << "seed " << seed;
        ASSERT_DOUBLE_EQ(got[i].second, want[i].second) << "seed " << seed;
      }
      ASSERT_EQ(cpu.pending_jobs(), jobs.size()) << "seed " << seed;
      ASSERT_EQ(cpu.preemptions(), preemptions) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace rtq::model
