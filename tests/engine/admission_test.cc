// Admission control: the FIFO ticket gate bounding concurrent statements.
//
// Controller-level tests pin the scheduling contract deterministically
// (bounded in-flight, ticket-order admission, cancellation of queued
// waiters); database-level tests prove the gate is actually wired around
// statement execution (high-water mark under a cap, queue-wait histogram,
// counter reconciliation, and a queued statement aborting cleanly when its
// cancel token flips — the session-teardown path).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/admission.h"
#include "engine/database.h"
#include "engine/obs/metrics.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

TEST(AdmissionControllerTest, UnlimitedNeverBlocksButCounts) {
  AdmissionController ac;
  ASSERT_EQ(ac.limit(), 0);
  ASSERT_OK(ac.Acquire(nullptr));
  ASSERT_OK(ac.Acquire(nullptr));
  EXPECT_EQ(ac.in_flight(), 2);
  EXPECT_GE(ac.max_in_flight_seen(), 2);
  ac.Release();
  ac.Release();
  EXPECT_EQ(ac.in_flight(), 0);
}

TEST(AdmissionControllerTest, CapBoundsInFlight) {
  AdmissionController ac;
  ac.set_limit(2);
  constexpr int kThreads = 8;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        if (!ac.Acquire(nullptr).ok()) {
          ++errors;
          continue;
        }
        std::this_thread::yield();
        ac.Release();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(ac.in_flight(), 0);
  EXPECT_LE(ac.max_in_flight_seen(), 2);
  EXPECT_GE(ac.max_in_flight_seen(), 1);
}

// FIFO: with the cap held, waiters that queued in a known order are admitted
// in that order. Each waiter delays its Acquire until the queue has exactly
// its predecessors, which fixes the ticket order deterministically.
TEST(AdmissionControllerTest, QueuedWaitersAdmittedInArrivalOrder) {
  AdmissionController ac;
  ac.set_limit(1);
  ASSERT_OK(ac.Acquire(nullptr));  // hold the only slot
  constexpr int kWaiters = 6;
  std::mutex mu;
  std::vector<int> admitted_order;
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      // Enter the queue only once every lower-numbered waiter is queued.
      while (ac.queue_depth() < i) std::this_thread::yield();
      ASSERT_OK(ac.Acquire(nullptr));
      {
        std::lock_guard<std::mutex> lock(mu);
        admitted_order.push_back(i);
      }
      ac.Release();
    });
  }
  while (ac.queue_depth() < kWaiters) std::this_thread::yield();
  ac.Release();  // open the gate; waiters drain one at a time
  for (std::thread& th : waiters) th.join();
  std::vector<int> expect;
  for (int i = 0; i < kWaiters; ++i) expect.push_back(i);
  EXPECT_EQ(admitted_order, expect);
  EXPECT_EQ(ac.in_flight(), 0);
  EXPECT_EQ(ac.queue_depth(), 0);
}

TEST(AdmissionControllerTest, CancelledWaiterAbortsAndQueueDrains) {
  obs::MetricsRegistry* metrics = obs::MetricsRegistry::Global();
  const uint64_t cancelled_before =
      metrics->CounterValue("mtbase_engine_statements_cancelled_total");
  AdmissionController ac;
  ac.set_limit(1);
  ASSERT_OK(ac.Acquire(nullptr));
  std::atomic<bool> cancel{false};
  Status waiter_status = Status::OK();
  std::thread cancelled_waiter([&] { waiter_status = ac.Acquire(&cancel); });
  while (ac.queue_depth() < 1) std::this_thread::yield();
  // A second, uncancelled waiter queues behind the doomed one; it must still
  // be admitted (the abandoned ticket may not stall the queue).
  Status second_status = Status::OK();
  std::thread second_waiter([&] {
    while (ac.queue_depth() < 1) std::this_thread::yield();
    second_status = ac.Acquire(nullptr);
    if (second_status.ok()) ac.Release();
  });
  while (ac.queue_depth() < 2) std::this_thread::yield();
  cancel.store(true, std::memory_order_release);
  ac.NotifyAll();
  cancelled_waiter.join();
  EXPECT_FALSE(waiter_status.ok());
  ac.Release();  // now the second waiter gets the slot
  second_waiter.join();
  EXPECT_OK(second_status);
  EXPECT_EQ(ac.in_flight(), 0);
  EXPECT_EQ(ac.queue_depth(), 0);
  EXPECT_GT(metrics->CounterValue("mtbase_engine_statements_cancelled_total"),
            cancelled_before);
}

// Regression: Release and NotifyAll used to notify without taking the queue
// mutex, so a waiter between its admission check and its wait_for missed the
// wakeup and slept out the 50 ms safety timeout — at limit 1 stalling every
// statement queued behind it. With the wakeup ordered, an admission wait is
// bounded by the holders' tiny critical sections, far below the timeout.
TEST(AdmissionControllerTest, ReleaseWakesQueuedWaiterWithoutTimeout) {
  AdmissionController ac;
  ac.set_limit(1);
  constexpr int kThreads = 4;
  constexpr int kCycles = 2000;
  std::atomic<int64_t> worst_us{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCycles; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        if (!ac.Acquire(nullptr).ok()) {
          ++errors;
          continue;
        }
        const int64_t waited =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        int64_t seen = worst_us.load();
        while (waited > seen && !worst_us.compare_exchange_weak(seen, waited)) {
        }
        ac.Release();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(ac.in_flight(), 0);
  EXPECT_LT(worst_us.load(), 25000) << "an admission wait reached the 50 ms "
                                       "safety timeout: a wakeup was lost";
}

class AdmissionDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(
        "CREATE TABLE t (a INTEGER, b INTEGER)"));
    std::string script;
    for (int i = 0; i < 600; ++i) {
      script += "INSERT INTO t VALUES (" + std::to_string(i % 37) + ", " +
                std::to_string(i) + ");\n";
    }
    ASSERT_OK(db_.ExecuteScript(script));
  }

  Database db_;
};

// With the cap at 2, eight threads of real statements never exceed two in
// flight, every statement still succeeds, and the admission counters and
// queue-wait histogram reconcile with what was issued.
TEST_F(AdmissionDatabaseTest, StatementsRespectCapAndMetricsReconcile) {
  obs::MetricsRegistry* metrics = obs::MetricsRegistry::Global();
  const uint64_t admitted_before =
      metrics->CounterValue("mtbase_engine_statements_admitted_total");
  const uint64_t waits_before =
      metrics->HistogramCount("mtbase_engine_admission_wait_seconds");
  db_.set_max_concurrent_statements(2);
  // SetUp's own statements already passed through the gate serially, so the
  // high-water mark starts at 1; the concurrent run below may only raise it
  // to the cap.
  ASSERT_LE(db_.admission()->max_in_flight_seen(), 1);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto rs = db_.Execute(
            "SELECT a, COUNT(*), SUM(b) FROM t GROUP BY a ORDER BY a");
        if (!rs.ok()) ++errors;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_LE(db_.admission()->max_in_flight_seen(), 2);
  EXPECT_GE(db_.admission()->max_in_flight_seen(), 1);
  EXPECT_EQ(db_.admission()->in_flight(), 0);
  EXPECT_EQ(db_.admission()->queue_depth(), 0);
  const uint64_t issued = static_cast<uint64_t>(kThreads * kPerThread);
  EXPECT_EQ(metrics->CounterValue("mtbase_engine_statements_admitted_total") -
                admitted_before,
            issued);
  // Every admission records one queue-wait observation (zero for immediate
  // admission), so the histogram moves in lockstep.
  EXPECT_EQ(
      metrics->HistogramCount("mtbase_engine_admission_wait_seconds") -
          waits_before,
      issued);
}

// A statement queued at the gate whose cancel flag flips (the session-
// teardown path) aborts with a clean error; the slot holder is unaffected
// and the gate is reusable afterwards. The flag reaches the gate only
// through the statement's explicit StatementContext.
TEST_F(AdmissionDatabaseTest, QueuedStatementAbortsOnCancelToken) {
  db_.set_max_concurrent_statements(1);
  ASSERT_OK_AND_ASSIGN(PreparedPlan plan,
                       db_.Prepare("SELECT COUNT(*) FROM t"));
  ASSERT_OK(db_.admission()->Acquire(nullptr));  // occupy the only slot
  std::atomic<bool> closed{false};
  std::atomic<bool> finished{false};
  Status queued_status = Status::OK();
  std::thread queued([&] {
    StatementContext ctx;
    ctx.cancel = &closed;
    queued_status = plan.Execute({}, ctx).status();
    finished.store(true, std::memory_order_release);
  });
  while (db_.admission()->queue_depth() < 1) std::this_thread::yield();
  closed.store(true, std::memory_order_release);
  db_.admission()->NotifyAll();
  // A statement that ignored the flag would stay queued behind the held
  // slot: wait a bounded time, then free the slot so the test fails
  // instead of hanging.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!finished.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool aborted_while_queued = finished.load(std::memory_order_acquire);
  db_.admission()->Release();
  queued.join();
  EXPECT_TRUE(aborted_while_queued);
  EXPECT_FALSE(queued_status.ok());
  EXPECT_NE(queued_status.ToString().find("cancel"), std::string::npos)
      << queued_status.ToString();
  // The gate still works: the next statement is admitted and runs.
  ASSERT_OK_AND_ASSIGN(auto rs, db_.Execute("SELECT COUNT(*) FROM t"));
  EXPECT_EQ(CanonRows(rs.rows), CanonRows({{Value::Int(600)}}));
}

// Raising the limit at runtime wakes queued statements (the serving layer's
// dynamic reconfiguration path).
TEST_F(AdmissionDatabaseTest, RaisingLimitReleasesQueue) {
  db_.set_max_concurrent_statements(1);
  ASSERT_OK(db_.admission()->Acquire(nullptr));
  Status queued_status = Status::Internal("never ran");
  std::thread queued([&] {
    queued_status = db_.Execute("SELECT COUNT(*) FROM t").status();
  });
  while (db_.admission()->queue_depth() < 1) std::this_thread::yield();
  db_.set_max_concurrent_statements(2);
  queued.join();
  EXPECT_OK(queued_status);
  db_.admission()->Release();
  EXPECT_EQ(db_.admission()->in_flight(), 0);
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
