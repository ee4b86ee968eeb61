// Admission control: a FIFO ticket gate bounding concurrent statements.
//
// The morsel TaskPool distributes workers inside one statement; admission
// control bounds how many statements are in flight at once so N concurrent
// sessions share the pool without oversubscribing it. The cap comes from
// Database::set_max_concurrent_statements (env default:
// MTBASE_MAX_CONCURRENT_STATEMENTS, 0 = unlimited). Queued statements are
// admitted in ticket (arrival) order; a queued statement whose session is
// torn down aborts cleanly through the cancel flag its caller passed in
// (engine::StatementContext::cancel).
#ifndef MTBASE_ENGINE_ADMISSION_H_
#define MTBASE_ENGINE_ADMISSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>

#include "common/result.h"

namespace mtbase {
namespace engine {

class AdmissionController {
 public:
  AdmissionController() = default;
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// 0 = unlimited (statements are still counted for the scheduler/metrics,
  /// but never queue). Raising the limit wakes queued statements.
  void set_limit(int limit);
  int limit() const;

  /// Blocks until admitted (FIFO by arrival ticket) or until `*cancelled`
  /// becomes true (session teardown), in which case it returns an error and
  /// admits nothing. `cancelled` may be null (never cancelled). Every
  /// successful Acquire must be paired with one Release.
  Status Acquire(const std::atomic<bool>* cancelled);
  void Release();

  /// Wake queued waiters so they re-check their cancel tokens (called by
  /// session teardown; spurious wakeups are harmless).
  void NotifyAll();

  // -- observability --------------------------------------------------------
  int in_flight() const { return in_flight_.load(std::memory_order_acquire); }
  int queue_depth() const;
  /// High-water mark of concurrently admitted statements (test hook for the
  /// bounded-in-flight assertion).
  int max_in_flight_seen() const {
    return max_in_flight_.load(std::memory_order_acquire);
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int limit_ = 0;                 // guarded by mu_
  uint64_t next_ticket_ = 0;      // guarded by mu_
  uint64_t serving_ = 0;          // guarded by mu_: lowest un-admitted ticket
  // Tickets abandoned by cancelled waiters; serving_ skips over them so the
  // queue cannot stall on a statement that will never claim its turn.
  std::set<uint64_t> abandoned_;  // guarded by mu_
  std::atomic<int> in_flight_{0};
  std::atomic<int> max_in_flight_{0};
};

}  // namespace engine
}  // namespace mtbase

#endif  // MTBASE_ENGINE_ADMISSION_H_
