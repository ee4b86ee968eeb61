#include "engine/admission.h"

#include <chrono>
#include <set>

#include "engine/obs/metrics.h"

namespace mtbase {
namespace engine {

void AdmissionController::set_limit(int limit) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    limit_ = limit < 0 ? 0 : limit;
  }
  cv_.notify_all();
}

int AdmissionController::limit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return limit_;
}

int AdmissionController::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(next_ticket_ - serving_);
}

void AdmissionController::NotifyAll() {
  // A waiter holds mu_ from its check until wait_for releases it, so a
  // notify sent without taking mu_ could land in between and be lost until
  // the 50 ms timeout. Cancel tokens flip outside mu_; taking it here orders
  // this wakeup after any such check.
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_all();
}

Status AdmissionController::Acquire(const std::atomic<bool>* cancelled) {
  auto* metrics = obs::MetricsRegistry::Global();
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t ticket = next_ticket_++;
  bool queued = false;
  const auto queued_at = std::chrono::steady_clock::now();
  for (;;) {
    if (cancelled != nullptr &&
        cancelled->load(std::memory_order_acquire)) {
      // Abandon our place in line; if we are at the head, advance serving_
      // past us (and past any earlier abandonments) so the queue moves on.
      if (serving_ == ticket) {
        ++serving_;
        while (abandoned_.erase(serving_) > 0) ++serving_;
      } else {
        abandoned_.insert(ticket);
      }
      lock.unlock();
      cv_.notify_all();
      metrics->Add("mtbase_engine_statements_cancelled_total");
      return Status::Internal("statement cancelled: session closed");
    }
    if (serving_ == ticket &&
        (limit_ <= 0 ||
         in_flight_.load(std::memory_order_acquire) < limit_)) {
      break;
    }
    queued = true;
    // Timed wait: cancellation is normally signalled via NotifyAll, the
    // timeout is a safety net against a missed wakeup.
    cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
  ++serving_;
  while (abandoned_.erase(serving_) > 0) ++serving_;
  int now_in_flight = in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  int seen = max_in_flight_.load(std::memory_order_relaxed);
  while (now_in_flight > seen &&
         !max_in_flight_.compare_exchange_weak(seen, now_in_flight)) {
  }
  lock.unlock();
  cv_.notify_all();

  metrics->Add("mtbase_engine_statements_admitted_total");
  if (queued) {
    metrics->Add("mtbase_engine_statements_queued_total");
  }
  metrics->Observe(
      "mtbase_engine_admission_wait_seconds",
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    queued_at)
          .count());
  return Status::OK();
}

void AdmissionController::Release() {
  {
    // Under mu_, like every other change to what a waiter checks, so the
    // wakeup below cannot be lost (see NotifyAll).
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
  cv_.notify_all();
}

}  // namespace engine
}  // namespace mtbase
