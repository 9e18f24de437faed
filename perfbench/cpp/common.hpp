// Shared plumbing of the repository benchmark: command-line arguments, the
// seeded input generator, the input fingerprint, latency statistics, the
// in-memory span trace and the result report printed as the last line.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double seconds_since(Clock::time_point start);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed window; whole rounds run until it has elapsed.
  double seconds = 10.0;
  /// false: end-to-end metrics; true: per-layer metrics from a traced run.
  bool trace = false;
  /// One round per window and a single set-up: checks names and the
  /// correctness gate quickly (the benchmark's own self-test uses it).
  bool quick = false;
  /// Corrupts one reference value so the correctness gate must fail.
  bool inject_fault = false;
  /// Where generated input files and the span dump are written.
  std::string work_dir = ".bench_build/perfbench-work";
};

/// CPUs this process may run on (sched_getaffinity), at least 1.
std::size_t available_cpus();

/// Peak resident set size of this process (getrusage), in MiB.
double peak_rss_mb();
/// Current resident set size (/proc/self/statm), in bytes.
std::size_t current_rss_bytes();

/// Seeded rates stay within this factor of a model's defaults.  Iterative
/// solvers take rate-dependent iteration counts, so a wider draw would make
/// the cost of a round depend on the seed.
constexpr double kRateSpread = 1.1;

/// splitmix64: a small deterministic generator, identical on every
/// platform, so a seed always yields the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n);
  /// `base` scaled by a factor drawn log-uniformly from [1/spread, spread].
  double jitter(double base, double spread);

  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// 64-bit FNV-1a over every generated input, so runs on two commits can be
/// shown to have seen identical inputs.
class Fingerprint {
 public:
  void add(std::string_view bytes);
  void add(double value);
  void add(std::uint64_t value);
  std::string hex() const;

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// %.17g: a double that parses back to the same value.
std::string exact(double value);

/// Linear-interpolated q-quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

/// Spans recorded by benchmark code around public library calls, kept in
/// memory and summarised (or dumped) at the end.  Every span belongs to an
/// op; an op's root span is opened by OpScope.  Single-threaded: the
/// traced paths record from the benchmark's own thread only.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  /// RAII span; a no-op (no clock read) when tracing is off.
  class Scope {
   public:
    Scope(Trace& trace, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    std::size_t index_ = 0;
  };

  /// The root span of one op.
  class OpScope {
   public:
    explicit OpScope(Trace& trace);
    ~OpScope();
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    Trace& trace_;
    std::size_t index_ = 0;
  };

  struct Layer {
    double self_seconds = 0.0;
    /// Ops in which the layer ran at least once.
    std::size_t ops = 0;
  };

  /// Self time (span duration minus the time its child spans cover) per
  /// span name; the op roots' self time is reported as "unattributed".
  std::map<std::string, Layer> layers() const;
  /// Summed wall clock of all op root spans.
  double op_seconds() const;
  /// layers()[name].self_seconds, 0 when no span has that name.
  double total_self_seconds(const std::string& name) const;

  /// One JSON object per span: name, op, parent, start and end seconds.
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::size_t op;
    std::size_t parent;  // kNone for op roots
    double start;
    double end;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::size_t open(const char* name);
  void close(std::size_t index);

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::size_t ops_ = 0;
};

/// The result printed as the last line of standard output.
class Report {
 public:
  /// A human-readable line, printed at once as "# ...".
  void info(const std::string& line) const;
  void metric(const std::string& name, double value, const std::string& unit);

  /// One attempted op whose checks passed or failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records a failed correctness check (printed to stderr).
  void check_failed(const std::string& what);

  /// Prints the JSON object; returns the process exit code (non-zero when
  /// any op or check failed).
  int emit() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t check_failures_ = 0;
};

/// The timed rounds of one window.  Every round runs the same ops, so the
/// median round gives a throughput that transient machine noise barely
/// moves.
struct Window {
  std::size_t ops_per_round = 0;
  std::vector<double> round_seconds;

  std::size_t ops() const { return ops_per_round * round_seconds.size(); }
  double seconds() const;
  /// Ops per second of the median round.
  double ops_per_s() const;
};

/// Runs `round` (which performs `ops_per_round` ops) repeatedly until
/// `seconds` have elapsed: at least once, or exactly once in quick mode.
template <typename Round>
Window run_rounds(double seconds, bool quick, std::size_t ops_per_round,
                  Round&& round) {
  Window window{ops_per_round, {}};
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point round_start = Clock::now();
    round();
    window.round_seconds.push_back(seconds_since(round_start));
  } while (!quick && seconds_since(start) < seconds);
  return window;
}

/// The untraced and traced windows of a tracing-overhead comparison.
struct PairedWindows {
  Window untraced;
  Window traced;
};

/// Alternates an `untraced` and a `traced` round (each performing
/// `ops_per_round` ops) until `seconds` have elapsed, so both windows see
/// the same machine conditions: at least one pair, exactly one in quick
/// mode.
template <typename Untraced, typename Traced>
PairedWindows run_paired_rounds(double seconds, bool quick,
                                std::size_t ops_per_round,
                                Untraced&& untraced, Traced&& traced) {
  PairedWindows windows{{ops_per_round, {}}, {ops_per_round, {}}};
  const Clock::time_point start = Clock::now();
  do {
    Clock::time_point round_start = Clock::now();
    untraced();
    windows.untraced.round_seconds.push_back(seconds_since(round_start));
    round_start = Clock::now();
    traced();
    windows.traced.round_seconds.push_back(seconds_since(round_start));
  } while (!quick && seconds_since(start) < seconds);
  return windows;
}

/// Median of five timed calls of `setup` (the benchmark's set-up time),
/// one in quick mode, keeping what the last call built.
template <typename Setup>
double median_setup_seconds(bool quick, Setup&& setup) {
  std::vector<double> times;
  for (std::size_t i = 0; i < (quick ? 1 : 5); ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(seconds_since(start));
  }
  return quantile(times, 0.5);
}

struct Context {
  const Args& args;
  Report& report;
  std::size_t cpus;
};

void run_figure4_batch(Context& context);
void run_large_chain(Context& context);
void run_exact_quotient(Context& context);
void run_rate_sweep(Context& context);

/// The end-to-end metrics every workload reports with tracing off.
/// latency_p50_ms is the median over rounds of each round's median;
/// latency_p99_ms the median over groups of `rounds_per_p99` consecutive
/// rounds of each group's 99th percentile.
void report_end_to_end(Report& report, double setup_seconds,
                       const Window& window,
                       const std::vector<double>& latencies_seconds,
                       std::size_t rounds_per_p99);

/// The per-layer metrics of a traced run, by name.  Every workload reports
/// the full list (see kPerLayerMetrics in common.cpp); a layer the workload
/// never calls reads 0.
using LayerValues = std::map<std::string, double>;

/// Fills the values every workload derives the same way from its spans:
/// the per-op self time of each layer, trace overhead and the part of the
/// ops' wall clock no layer span covers.
void add_trace_summary(LayerValues& values, const Trace& trace,
                       double untraced_ops_per_s, double traced_ops_per_s);

/// Reports every per-layer metric in the canonical order with its unit.
void report_per_layer(Report& report, const LayerValues& values);

/// Writes the spans under the work directory and says where.
void dump_trace(const Context& context, const Trace& trace);

}  // namespace perfbench
