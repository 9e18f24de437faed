#include "service/job.hpp"

namespace choreo::service {

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kTimedOut: return "timed_out";
  }
  return "unknown";
}

bool is_terminal(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued:
    case JobStatus::kRunning:
      return false;
    case JobStatus::kDone:
    case JobStatus::kFailed:
    case JobStatus::kCancelled:
    case JobStatus::kTimedOut:
      return true;
  }
  return false;
}

sweep::SweepOptions sweep_options(const chor::AnalysisOptions& options) {
  sweep::SweepOptions result;
  if (options.aggregation == chor::Aggregation::kFluid) {
    result.backend = sweep::Backend::kFluid;
  }
  result.solver = options.solver;
  result.derive.max_states = options.max_states;
  result.derive.aggregate = options.aggregation == chor::Aggregation::kExact;
  result.derive.threads = options.derive_threads;
  result.derive.pool = options.derive_pool;
  result.fluid = chor::governed_fluid(options);
  result.threads = options.derive_threads;
  result.pool = options.derive_pool;
  result.budget = options.budget;
  return result;
}

}  // namespace choreo::service
