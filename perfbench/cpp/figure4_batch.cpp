// figure4_batch: the paper's two case studies as XMI project files (with a
// Poseidon layout subtree) submitted by path to a service::Scheduler with a
// ResultCache, in a closed loop with one job outstanding.
//
// A round is one design session: a fresh cache and scheduler serve the
// seeded submission stream, in which every model variant appears the same
// number of times with seeded rate overrides and a third of the
// submissions repeat an earlier job.  A repeat is submitted only once its
// original has finished, so every repeat is a cache hit and the hit count
// per round is exact.
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "choreographer/paper_models.hpp"
#include "common.hpp"
#include "replay.hpp"
#include "service/cache.hpp"
#include "service/metrics.hpp"
#include "service/scheduler.hpp"
#include "uml/xmi.hpp"
#include "xml/parse.hpp"
#include "xml/write.hpp"

namespace perfbench {

namespace {

using namespace choreo;

struct Variant {
  bool pda = false;
  /// Transmitters (PDA handover) or clients (Tomcat).
  std::size_t size = 0;
  bool cached = false;
  std::string label;
};

std::vector<Variant> variants() {
  std::vector<Variant> list;
  for (const std::size_t transmitters : {2, 4, 8, 16, 32, 64}) {
    list.push_back({true, transmitters, false,
                    "pda[" + std::to_string(transmitters) + "tx]"});
  }
  for (const bool cached : {true, false}) {
    for (std::size_t clients = 1; clients <= 6; ++clients) {
      list.push_back({false, clients, cached,
                      std::string(cached ? "tomcat_cached[" : "tomcat[") +
                          std::to_string(clients) + "cl]"});
    }
  }
  return list;
}

struct Rate {
  std::string name;
  double base;
};

/// Activities whose rate a job may override.  Only rates of actions that
/// are active on both sides: overriding a passive action would make it
/// active (apply_rates), changing the model rather than its rates.
std::vector<Rate> overridable(const Variant& variant) {
  std::vector<Rate> rates;
  if (variant.pda) {
    const std::vector<Rate> stems = {
        {"download_file", 2.0},     {"detect_weak_signal", 1.0},
        {"search_for_transmitters", 4.0}, {"handover", 0.5},
        {"continue_download", 2.0}, {"abort_download", 2.0}};
    for (std::size_t i = 1; i <= variant.size; ++i) {
      for (const Rate& stem : stems) {
        rates.push_back({stem.name + "_" + std::to_string(i), stem.base});
      }
    }
  } else if (variant.cached) {
    rates = {{"offlineProcessing", 2.0}, {"locateservlet", 40.0},
             {"execute", 10.0}};
  } else {
    rates = {{"offlineProcessing", 2.0}, {"locatejsp", 20.0},
             {"translate", 0.5}, {"compile", 0.8}, {"execute", 10.0}};
  }
  return rates;
}

/// The drawing tool's layout: boxes at seeded coordinates.
xml::Node layout_subtree(Rng& rng) {
  xml::Node layout = xml::Node::element("Poseidon.layout");
  const std::size_t boxes = 2 + rng.below(6);
  for (std::size_t b = 0; b < boxes; ++b) {
    xml::Node& box = layout.add_element("node");
    box.set_attr("ref", "n" + std::to_string(1 + rng.below(12)));
    box.set_attr("x", std::to_string(rng.below(1600)));
    box.set_attr("y", std::to_string(rng.below(1200)));
  }
  return layout;
}

struct Job {
  std::string path;
  std::string label;
  chor::AnalysisOptions options;
  /// The sequential analyse_project reference, serialised.
  std::string expected;
};

struct Inputs {
  std::vector<Job> jobs;
  /// Submission order, as indices into `jobs`.
  std::vector<std::size_t> stream;
  std::size_t repeats = 0;
};

Inputs generate(const Context& context) {
  const Args& args = context.args;
  Rng rng(args.seed);
  Fingerprint fingerprint;
  const std::string dir = args.work_dir + "/figure4_batch";
  std::filesystem::create_directories(dir);

  // The stream is made of blocks of equal composition: every variant once,
  // in seeded order, then one repeat of every other variant (the odd ones
  // in odd blocks, the even ones in even blocks), in seeded order.  So the
  // cost of a round does not depend on the seed, which draws rates (within
  // kRateSpread), layouts, order and which earlier job of a variant a
  // repeat resubmits.
  const std::vector<Variant> all = variants();
  const std::size_t blocks = args.quick ? 1 : 10;
  std::vector<std::size_t> plan;  // variant of each distinct job
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<std::size_t> block(all.size());
    for (std::size_t v = 0; v < all.size(); ++v) block[v] = v;
    rng.shuffle(block);
    plan.insert(plan.end(), block.begin(), block.end());
  }

  Inputs inputs;
  for (std::size_t j = 0; j < plan.size(); ++j) {
    const Variant& variant = all[plan[j]];
    uml::Model model = variant.pda
                           ? chor::pda_handover_model({.transmitters = variant.size})
                           : chor::tomcat_model(variant.cached,
                                                {.clients = variant.size});
    xml::Document project = uml::to_xmi(model);
    project.root().add_child(layout_subtree(rng));

    Job job;
    job.path = dir + "/job-" + std::to_string(j) + ".xmi";
    job.label = variant.label;
    job.options = pipeline_options();
    std::vector<Rate> rates = overridable(variant);
    rng.shuffle(rates);
    for (std::size_t r = 0; r < 2 && r < rates.size(); ++r) {
      job.options.rates.emplace_back(rates[r].name,
                                     rng.jitter(rates[r].base, kRateSpread));
      fingerprint.add(rates[r].name);
      fingerprint.add(job.options.rates.back().second);
    }
    const std::string text = xml::to_string(project);
    fingerprint.add(text);
    std::ofstream(job.path, std::ios::binary) << text;
    inputs.jobs.push_back(std::move(job));
  }

  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t j = b * all.size(); j < (b + 1) * all.size(); ++j) {
      inputs.stream.push_back(j);
    }
    std::vector<std::size_t> repeated;
    for (std::size_t v = b % 2; v < all.size(); v += 2) repeated.push_back(v);
    rng.shuffle(repeated);
    for (const std::size_t v : repeated) {
      // One of the variant's jobs in blocks 0..b, all placed already.
      const std::size_t from = rng.below(b + 1);
      for (std::size_t j = from * all.size(); j < (from + 1) * all.size(); ++j) {
        if (plan[j] == v) inputs.stream.push_back(j);
      }
    }
    inputs.repeats += repeated.size();
  }
  for (const std::size_t index : inputs.stream) {
    fingerprint.add(static_cast<std::uint64_t>(index));
  }
  context.report.info("inputs: " + std::to_string(inputs.jobs.size()) +
                      " distinct jobs, " + std::to_string(inputs.stream.size()) +
                      " submissions per round (" +
                      std::to_string(inputs.repeats) +
                      " repeats); fingerprint " + fingerprint.hex());
  return inputs;
}

/// Per-job service numbers from JobResult.timings.
struct ServiceSamples {
  std::vector<double> queue_seconds;
  std::vector<double> run_seconds;
  double attempts = 0.0;
};

class Batch {
 public:
  Batch(Context& context, const Inputs& inputs)
      : context_(context), inputs_(inputs) {}

  service::Registry& registry() { return registry_; }

  /// One session: the whole stream through a fresh cache and scheduler,
  /// one job in flight.  Every earlier job has finished when a repeat is
  /// submitted, so a repeat always hits the cache.
  void round(std::vector<double>& latencies, ServiceSamples* samples) {
    service::ResultCache cache({.max_bytes = 256u << 20, .registry = &registry_});
    service::Scheduler scheduler(options(&cache));
    for (const std::size_t index : inputs_.stream) {
      const Job& job = inputs_.jobs[index];
      service::JobRequest request;
      request.name = job.label;
      request.input_path = job.path;
      request.options = job.options;
      request.timeout_seconds = 0.0;
      const service::JobResult result =
          scheduler.submit(std::move(request)).wait();
      const bool ok = result.status == service::JobStatus::kDone &&
                      result.annotated_xmi == job.expected;
      if (!ok) {
        context_.report.check_failed(
            "figure4_batch: " + job.label + " (" + job.path + ") " +
            (result.status == service::JobStatus::kDone
                 ? std::string("annotated XMI differs from the reference")
                 : "status " + std::string(service::to_string(result.status)) +
                       ": " + result.error));
      }
      context_.report.op(ok);
      latencies.push_back(result.timings.queued_seconds +
                          result.timings.run_seconds);
      if (samples != nullptr) {
        samples->queue_seconds.push_back(result.timings.queued_seconds);
        samples->run_seconds.push_back(result.timings.run_seconds);
        samples->attempts += static_cast<double>(result.attempts);
      }
    }
  }

  /// Set-up: a scheduler and cache of the timed configuration warmed with
  /// every distinct job once (the cache is thrown away, so timed rounds
  /// start cold).
  void warm_up() {
    service::Registry scratch;
    service::ResultCache cache({.registry = &scratch});
    service::SchedulerOptions warm = options(&cache);
    warm.registry = &scratch;
    service::Scheduler scheduler(warm);
    std::vector<service::JobHandle> handles;
    for (const Job& job : inputs_.jobs) {
      service::JobRequest request;
      request.input_path = job.path;
      request.options = job.options;
      request.timeout_seconds = 0.0;
      handles.push_back(scheduler.submit(std::move(request)));
    }
    for (service::JobHandle& handle : handles) {
      const service::JobResult result = handle.wait();
      if (result.status != service::JobStatus::kDone) {
        context_.report.check_failed("figure4_batch: warm-up job: " +
                                     result.error);
      }
    }
  }

 private:
  /// One worker and a submitter that blocks on the job in flight keep the
  /// run to about one busy thread, so a shared host's other load barely
  /// moves it.  With one job in flight a job's latency is its own queue
  /// hand-off and run, not the run of whichever job the seeded order put
  /// ahead of it.
  service::SchedulerOptions options(service::ResultCache* cache) {
    service::SchedulerOptions options;
    options.workers = 1;
    options.queue_capacity = 1;
    options.default_timeout_seconds = 0.0;
    options.derive_threads = 1;
    options.cache = cache;
    options.registry = &registry_;
    return options;
  }

  Context& context_;
  const Inputs& inputs_;
  service::Registry registry_;
};

/// latency_p99_ms is taken over groups of this many rounds (1,080 ops), so
/// that each p99 has more than 10 samples beyond it.
constexpr std::size_t kRoundsPerP99 = 4;

}  // namespace

void run_figure4_batch(Context& context) {
  const Args& args = context.args;
  Report& report = context.report;
  report.info("threads: scheduler workers 1 + 1 submitting thread, "
              "derive_threads 1, outstanding jobs 1, solver.parallel false");

  Inputs inputs = generate(context);

  // Reference: sequential analyse_project per distinct job.
  {
    const Clock::time_point start = Clock::now();
    for (Job& job : inputs.jobs) {
      job.expected = analyse_project_file(job.path, job.options);
    }
    if (args.inject_fault) inputs.jobs.front().expected += ' ';
    report.info("reference: " + std::to_string(inputs.jobs.size()) +
                " analyses in " + exact(seconds_since(start)) + " s");
  }

  Batch batch(context, inputs);
  const double setup_seconds = median_setup_seconds(
      args.quick, [&] { batch.warm_up(); });

  // With tracing on, the scheduler window also records each job's service
  // timings and the cache counters (no spans: the jobs run on the
  // scheduler's worker); it takes half the window, and the untraced and
  // traced replays below alternate over the other half.  The registry counts the timed rounds only (the
  // set-up's warm-up scheduler has a registry of its own).
  ServiceSamples samples;
  std::vector<double> latencies;
  const std::size_t ops_per_round = inputs.stream.size();
  const Window window = run_rounds(
      args.trace ? args.seconds / 2 : args.seconds, args.quick, ops_per_round,
      [&] { batch.round(latencies, args.trace ? &samples : nullptr); });
  if (!args.trace) {
    report_end_to_end(report, setup_seconds, window, latencies,
                      kRoundsPerP99);
    return;
  }
  const double hits = static_cast<double>(
      batch.registry().counter("choreo_cache_hits_total", "").value());
  const double misses = static_cast<double>(
      batch.registry().counter("choreo_cache_misses_total", "").value());

  // Every distinct job replayed sequentially on this thread: the key as
  // the scheduler computes it, then the analysis.  Untraced, the analysis
  // is one analyse_project call; traced, it is the decomposed chain with a
  // span around each public call, whose XMI must still be byte-identical to
  // the scheduler's (both equal the reference).
  auto replay = [&](Trace& trace, ReplayTotals& totals) {
    for (const Job& job : inputs.jobs) {
      Trace::OpScope op(trace);
      {
        // The key is computed from a parsed project, as the scheduler does;
        // that parse is attributed to a span of its own.
        const xml::Document project = [&] {
          Trace::Scope span(trace, "service.cache_key.parse");
          return xml::parse_file(job.path);
        }();
        Trace::Scope span(trace, "service.cache_key");
        if (service::cache_key(project, job.options).empty()) {
          throw std::logic_error("empty cache key");
        }
      }
      const std::string replayed =
          trace.enabled() ? replay_project(trace, job.path, job.options, totals)
                          : analyse_project_file(job.path, job.options);
      const bool ok = replayed == job.expected;
      if (!ok) {
        report.check_failed("figure4_batch: " +
                            std::string(trace.enabled() ? "decomposed " : "") +
                            "replay of " + job.label +
                            " is not byte-identical to the scheduler's XMI");
      }
      report.op(ok);
    }
  };
  Trace off(false);
  ReplayTotals unused;
  Trace trace(true);
  ReplayTotals totals;
  const PairedWindows replays = run_paired_rounds(
      args.seconds / 2, args.quick, inputs.jobs.size(),
      [&] { replay(off, unused); }, [&] { replay(trace, totals); });

  LayerValues values;
  totals.derive.fill(values);
  totals.solve.fill(values);
  values["xml.parse_mb_per_s"] =
      totals.bytes_parsed / 1e6 / trace.total_self_seconds("xml.parse");
  values["service.cache.hit_ratio"] = hits / (hits + misses);
  values["service.cache.hits"] =
      hits / static_cast<double>(window.round_seconds.size());
  values["service.queue_wait_ms_p50"] =
      quantile(samples.queue_seconds, 0.50) * 1e3;
  values["service.queue_wait_ms_p99"] =
      quantile(samples.queue_seconds, 0.99) * 1e3;
  values["service.run_ms_p50"] = quantile(samples.run_seconds, 0.50) * 1e3;
  values["service.attempts_per_job"] =
      samples.attempts / static_cast<double>(samples.run_seconds.size());
  add_trace_summary(values, trace, replays.untraced.ops_per_s(),
                    replays.traced.ops_per_s());
  report_per_layer(report, values);
  dump_trace(context, trace);
}

}  // namespace perfbench
