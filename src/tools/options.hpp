// The option table of the choreographer front end.
//
// One table holds every flag, and one function parses an argv of the form
// `INPUT [flags]` into a Job.  The batch manifest reuses that function:
// each manifest line is such an argv, parsed over the flags given beside
// --batch, so a line's own flags override those defaults.  Each option
// names the job kinds it applies to; a flag given to a job it cannot
// affect is a usage error rather than a silent no-op.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "choreographer/measures_spec.hpp"
#include "choreographer/pipeline.hpp"
#include "service/cache.hpp"
#include "service/scheduler.hpp"
#include "sweep/spec.hpp"
#include "util/error.hpp"

namespace choreo::cli {

/// A malformed command line or manifest line; the binary exits with 2.
class UsageError : public util::Error {
 public:
  using Error::Error;
};

/// What a job does, which follows from its input; each option lists the
/// kinds it applies to as a mask of these bits.
enum Kind : unsigned {
  kProject = 1u << 0,  ///< an XMI project: the Figure-4 pipeline
  kModel = 1u << 1,    ///< a PEPA model: derive and solve the state space
  kNet = 1u << 2,      ///< a PEPA net: derive and solve the marking graph
  kFluid = 1u << 3,    ///< a PEPA model under --aggregation fluid
  kSweep = 1u << 4,    ///< a PEPA model with --sweep axes
  kQueued = 1u << 5,   ///< a --batch job (project or sweep) and its defaults
  kBatch = 1u << 6,    ///< the --batch run itself: command line only
};

/// One job: the input and every per-job option.
struct Job {
  std::string input;
  /// -o: the annotated XMI of a project, or a sweep's table (JSON when the
  /// path ends in .json, CSV otherwise; stdout when unset).
  std::string output;
  /// --name: the job's label in the batch table (default: the input).
  std::string name;
  chor::AnalysisOptions analysis;
  /// --threads: exploration (and sweep point) lanes; 0 sizes to the pool.
  std::size_t threads = 1;
  /// --timeout: wall-clock limit in seconds; 0 means none.
  double timeout_seconds = 0.0;
  bool report = false;
  std::string sensitivity;
  std::string emit_pepanet;
  bool states = false;
  bool lump = false;
  std::string prism;
  std::string dot;
  std::string passage_to;
  std::vector<chor::MeasureSpec> measures;
  sweep::SweepSpec sweep;
  /// The flags given for this job, in order, for check_applies().
  std::vector<std::string> flags;
};

/// Everything a command line says: the job (or, with --batch, the defaults
/// of every manifest line) and the batch run's own settings.
struct Options {
  Job job;
  bool help = false;
  std::string batch;
  service::SchedulerOptions scheduler;
  service::CacheOptions cache;
  std::size_t repeat = 1;
  bool metrics = true;
};

/// A non-negative decimal integer; anything else throws UsageError.
std::size_t parse_count(const std::string& value);

/// A finite decimal number; anything else throws UsageError.
double parse_number(const std::string& value);

/// Parses `args` (INPUT and flags in any order) over `options`, recording
/// each flag in options.job.flags.  Throws UsageError.
void parse_args(const std::vector<std::string>& args, Options& options);

/// Throws UsageError naming the first flag in job.flags that applies to
/// none of the kinds in the `kinds` mask.
void check_applies(const Job& job, unsigned kinds);

/// Reads a batch manifest: every line is `INPUT [flags]` parsed over
/// `defaults`, and a field that starts with '#' comments out the rest of
/// its line.  `name` prefixes error messages.  Throws UsageError.
std::vector<Job> read_manifest(std::istream& in, const std::string& name,
                               const Options& defaults);

/// The usage text, generated from the option table.
void print_usage(std::ostream& out);

}  // namespace choreo::cli
