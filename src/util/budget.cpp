#include "util/budget.hpp"

#include "util/error.hpp"

namespace choreo::util {

void Budget::set_deadline_seconds(double seconds) {
  // Past about 292 years the clock's nanosecond count overflows; a deadline
  // 30 years out cannot pass during a run, so longer ones are none as well.
  constexpr double kUnboundedSeconds = 1e9;
  if (!(seconds > 0.0 && seconds < kUnboundedSeconds)) {  // NaN too
    deadline_ns_.store(kNoDeadline, std::memory_order_relaxed);
    return;
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  set_deadline(deadline);
}

void Budget::check(const char* stage) const {
  if (cancelled_.load(std::memory_order_relaxed)) {
    throw InterruptedError(InterruptedError::Reason::kCancelled, stage);
  }
  if (deadline_passed()) {
    throw InterruptedError(InterruptedError::Reason::kDeadline, stage);
  }
  const std::size_t bound = max_state_bytes_.load(std::memory_order_relaxed);
  if (bound != 0 &&
      state_bytes_.load(std::memory_order_relaxed) > bound) {
    throw BudgetError(msg("state storage exceeds the configured budget of ",
                          bound, " bytes (state-space explosion)"));
  }
}

void Budget::charge_states(std::size_t states, std::size_t bytes) {
  states_.fetch_add(states, std::memory_order_relaxed);
  const std::size_t now =
      state_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::size_t peak = peak_state_bytes_.load(std::memory_order_relaxed);
  while (peak < now && !peak_state_bytes_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void Budget::note_level(std::size_t frontier) {
  levels_.fetch_add(1, std::memory_order_relaxed);
  std::size_t peak = peak_frontier_.load(std::memory_order_relaxed);
  while (peak < frontier && !peak_frontier_.compare_exchange_weak(
                                peak, frontier, std::memory_order_relaxed)) {
  }
}

BudgetUsage Budget::usage() const {
  BudgetUsage usage;
  usage.states = states_.load(std::memory_order_relaxed);
  usage.state_bytes = state_bytes_.load(std::memory_order_relaxed);
  usage.peak_state_bytes = peak_state_bytes_.load(std::memory_order_relaxed);
  usage.levels = levels_.load(std::memory_order_relaxed);
  usage.peak_frontier = peak_frontier_.load(std::memory_order_relaxed);
  usage.solver_iterations =
      solver_iterations_.load(std::memory_order_relaxed);
  return usage;
}

}  // namespace choreo::util
