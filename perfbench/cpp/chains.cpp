// large_chain and exact_quotient: whole exact analyses of the PEPA model
// families (derive, generator, steady state, throughputs), one at a time,
// repeating a fixed mix in a seeded order.  large_chain derives the full
// interleaved chains and adds the Tomcat UML model through
// chor::analyse_project; exact_quotient derives strong-equivalence
// quotients (DeriveOptions::aggregate) of replicated families next to a
// ring control that cannot collapse.
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "choreographer/paper_models.hpp"
#include "common.hpp"
#include "ctmc/steady_state.hpp"
#include "pepa/families.hpp"
#include "pepa/measures.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "replay.hpp"
#include "uml/xmi.hpp"
#include "util/thread_pool.hpp"
#include "xml/write.hpp"

namespace perfbench {

namespace {

using namespace choreo;

/// Solver residuals above this fail the op.
constexpr double kResidualLimit = 1e-9;

/// One member of a workload's mix.
struct Member {
  std::string label;
  /// PEPA family member: builds the model (rates drawn at generation).
  std::function<pepa::Model()> build;
  /// Closed-form state (or block) count the derivation must reach.
  std::size_t expected_states = 0;
  /// UML project member instead: the project file and its options.
  std::string project_path;
  chor::AnalysisOptions project_options;
  std::string expected_xmi;
  /// The member the set-up's warm-up op runs (one per mix, fixed, so the
  /// set-up time does not depend on the seed).
  bool warm_up = false;
  /// Throughputs of the member's first op, which later ops must repeat
  /// bit for bit.
  std::optional<std::vector<std::pair<pepa::ActionId, double>>> first;
};

class Chains {
 public:
  /// `aggregate`: derive strong-equivalence quotients.
  Chains(Context& context, std::vector<Member> mix, bool aggregate)
      : context_(context), mix_(std::move(mix)), aggregate_(aggregate) {}

  /// Set-up: one warm-up op (whose checks count like any other).
  void set_up() {
    Trace off(false);
    ReplayTotals unused;
    for (Member& member : mix_) {
      if (member.warm_up) run(off, member, unused);
    }
  }

  /// One op: a whole analysis of `member`.  Returns whether it passed.
  bool run(Trace& trace, Member& member, ReplayTotals& totals) {
    try {
      Trace::OpScope op(trace);
      return member.build ? run_pepa(trace, member, totals)
                          : run_project(trace, member, totals);
    } catch (const std::exception& error) {
      context_.report.check_failed(member.label + ": " + error.what());
      return false;
    }
  }

  /// One round: every member once, in mix order.
  void round(Trace& trace, std::vector<double>& latencies,
             ReplayTotals& totals) {
    for (Member& member : mix_) {
      const Clock::time_point start = Clock::now();
      const bool ok = run(trace, member, totals);
      latencies.push_back(seconds_since(start));
      context_.report.op(ok);
    }
  }

  std::vector<Member>& mix() { return mix_; }

 private:
  bool run_pepa(Trace& trace, Member& member, ReplayTotals& totals) {
    pepa::Model model = [&] {
      Trace::Scope span(trace, "pepa.model");
      return member.build();
    }();
    pepa::Semantics semantics(model.arena());
    pepa::DeriveOptions options;
    options.threads = 1;
    options.aggregate = aggregate_;
    const std::size_t rss_before =
        trace.enabled() ? current_rss_bytes() : std::size_t{0};
    const pepa::StateSpace space = [&] {
      Trace::Scope span(trace, "pepa.derive");
      return pepa::StateSpace::derive(semantics, model.system(), options);
    }();
    if (trace.enabled()) {
      totals.derive.add(space.stats(), space.state_count(),
                        space.transitions().size(), space.aggregated(),
                        static_cast<double>(current_rss_bytes()) -
                            static_cast<double>(rss_before));
    }
    const ctmc::Generator generator = [&] {
      Trace::Scope span(trace, "ctmc.generator");
      return space.generator();
    }();
    ctmc::SolveOptions solver;
    solver.parallel = false;
    const ctmc::SolveResult solved = [&] {
      Trace::Scope span(trace, "ctmc.solve");
      return ctmc::steady_state(generator, solver);
    }();
    if (trace.enabled()) totals.solve.add(generator, solved);
    const auto throughputs = [&] {
      Trace::Scope span(trace, "pepa.measures");
      return pepa::all_throughputs(space, solved.distribution, model.arena());
    }();

    bool ok = true;
    if (space.state_count() != member.expected_states) {
      context_.report.check_failed(
          member.label + ": " + std::to_string(space.state_count()) +
          " states, closed form says " +
          std::to_string(member.expected_states));
      ok = false;
    }
    if (!(solved.residual <= kResidualLimit)) {
      context_.report.check_failed(member.label + ": residual " +
                                   exact(solved.residual));
      ok = false;
    }
    if (!member.first) {
      member.first = throughputs;
    } else if (*member.first != throughputs) {
      context_.report.check_failed(member.label +
                                   ": throughputs differ between repeats");
      ok = false;
    }
    return ok;
  }

  bool run_project(Trace& trace, Member& member, ReplayTotals& totals) {
    const std::string annotated =
        trace.enabled()
            ? replay_project(trace, member.project_path,
                             member.project_options, totals)
            : analyse_project_file(member.project_path,
                                   member.project_options);
    if (annotated != member.expected_xmi) {
      context_.report.check_failed(
          member.label + ": annotated XMI differs from the reference");
      return false;
    }
    return true;
  }

  Context& context_;
  std::vector<Member> mix_;
  bool aggregate_;
};

/// Runs a mix: reference, set-up, timed window, optional traced window.
void run_chains(Context& context, std::vector<Member> mix, bool aggregate,
                Fingerprint& fingerprint) {
  const Args& args = context.args;
  Report& report = context.report;
  Rng order(args.seed ^ 0x6f72646572ull);
  order.shuffle(mix);
  std::string labels;
  for (const Member& member : mix) labels += " " + member.label;
  fingerprint.add(labels);
  report.info("mix:" + labels);
  report.info("inputs fingerprint " + fingerprint.hex());
  report.info("threads: derive lanes 1, solver.parallel false, one op at "
              "a time; process-wide pool workers " +
              std::to_string(util::ThreadPool::shared().worker_count()) +
              " (generator builds of large chains run on it; not settable)");

  // References: closed forms are set at generation; UML members get a
  // sequential analyse_project.
  {
    const Clock::time_point start = Clock::now();
    for (Member& member : mix) {
      if (member.build) {
        if (args.inject_fault) ++member.expected_states;
        continue;
      }
      member.expected_xmi =
          analyse_project_file(member.project_path, member.project_options);
      if (args.inject_fault) member.expected_xmi += ' ';
    }
    report.info("reference: " + exact(seconds_since(start)) + " s");
  }

  Chains chains(context, std::move(mix), aggregate);
  const double setup_seconds =
      median_setup_seconds(args.quick, [&] { chains.set_up(); });

  Trace off(false);
  ReplayTotals unused;
  std::vector<double> latencies;
  const std::size_t ops_per_round = chains.mix().size();
  if (!args.trace) {
    const Window window =
        run_rounds(args.seconds, args.quick, ops_per_round,
                   [&] { chains.round(off, latencies, unused); });
    report_end_to_end(report, setup_seconds, window, latencies,
                      /*rounds_per_p99=*/1);
    return;
  }

  // A traced run alternates untraced and traced rounds over one window of
  // the same length as an untraced run.
  Trace trace(true);
  ReplayTotals totals;
  std::vector<double> traced;
  const PairedWindows windows = run_paired_rounds(
      args.seconds, args.quick, ops_per_round,
      [&] { chains.round(off, latencies, unused); },
      [&] { chains.round(trace, traced, totals); });
  LayerValues values;
  totals.derive.fill(values);
  totals.solve.fill(values);
  if (totals.bytes_parsed > 0.0) {
    values["xml.parse_mb_per_s"] =
        totals.bytes_parsed / 1e6 / trace.total_self_seconds("xml.parse");
  }
  add_trace_summary(values, trace, windows.untraced.ops_per_s(),
                    windows.traced.ops_per_s());
  report_per_layer(report, values);
  dump_trace(context, trace);
}

}  // namespace

void run_large_chain(Context& context) {
  Rng rng(context.args.seed);
  Fingerprint fingerprint;
  std::vector<Member> mix;

  {
    pepa::ClientServerParams params;
    params.request_rate = rng.jitter(1.5, kRateSpread);
    params.response_rate = rng.jitter(2.0, kRateSpread);
    params.servers = 6;
    fingerprint.add(params.request_rate);
    fingerprint.add(params.response_rate);
    Member member;
    member.label = "client_server[10cl,6sv]";
    member.build = [params] { return pepa::client_server(10, params); };
    member.expected_states = pepa::client_server_states(10, 6);
    mix.push_back(std::move(member));
  }
  {
    pepa::RingParams params;
    params.on_rate = rng.jitter(1.0, kRateSpread);
    params.off_rate = rng.jitter(0.8, kRateSpread);
    fingerprint.add(params.on_rate);
    fingerprint.add(params.off_rate);
    Member member;
    member.label = "ring[15]";
    member.build = [params] { return pepa::ring(15, params); };
    member.expected_states = pepa::ring_states(15);
    mix.push_back(std::move(member));
  }
  {
    pepa::PdaHandoverParams params;
    params.detect_rate = rng.jitter(1.0, kRateSpread);
    params.handover_rate = rng.jitter(4.0, kRateSpread);
    params.reset_rate = rng.jitter(2.0, kRateSpread);
    params.transmitters = 4;
    fingerprint.add(params.detect_rate);
    fingerprint.add(params.handover_rate);
    fingerprint.add(params.reset_rate);
    Member member;
    member.label = "pda_handover[12pda,4tx]";
    member.build = [params] { return pepa::pda_handover(12, params); };
    member.expected_states = pepa::pda_handover_states(12, 4);
    mix.push_back(std::move(member));
  }
  {
    // The Tomcat uncached UML model at 8 clients, as a project file with a
    // layout subtree and seeded rate overrides.
    const std::string dir = context.args.work_dir + "/large_chain";
    std::filesystem::create_directories(dir);
    Member member;
    member.label = "tomcat_uml[8cl]";
    member.warm_up = true;
    member.project_path = dir + "/tomcat-8.xmi";
    member.project_options = pipeline_options();
    member.project_options.rates = {
        {"translate", rng.jitter(0.5, kRateSpread)},
        {"compile", rng.jitter(0.8, kRateSpread)}};
    for (const auto& [name, rate] : member.project_options.rates) {
      fingerprint.add(name);
      fingerprint.add(rate);
    }
    xml::Document project = uml::to_xmi(chor::tomcat_model(false, {.clients = 8}));
    xml::Node& layout = project.root().add_element("Poseidon.layout");
    xml::Node& box = layout.add_element("node");
    box.set_attr("ref", "n1");
    box.set_attr("x", std::to_string(rng.below(1600)));
    box.set_attr("y", std::to_string(rng.below(1200)));
    const std::string text = xml::to_string(project);
    fingerprint.add(text);
    std::ofstream(member.project_path, std::ios::binary) << text;
    mix.push_back(std::move(member));
  }
  run_chains(context, std::move(mix), /*aggregate=*/false, fingerprint);
}

void run_exact_quotient(Context& context) {
  Rng rng(context.args.seed);
  Fingerprint fingerprint;
  std::vector<Member> mix;

  for (const std::size_t pdas : {20, 50}) {
    pepa::PdaHandoverParams params;
    params.detect_rate = rng.jitter(1.0, kRateSpread);
    params.handover_rate = rng.jitter(4.0, kRateSpread);
    params.reset_rate = rng.jitter(2.0, kRateSpread);
    params.transmitters = 20;
    fingerprint.add(params.detect_rate);
    fingerprint.add(params.handover_rate);
    fingerprint.add(params.reset_rate);
    Member member;
    member.label = "pda_handover[" + std::to_string(pdas) + "pda,20tx]";
    member.build = [params, pdas] { return pepa::pda_handover(pdas, params); };
    member.expected_states = pepa::pda_handover_quotient_states(pdas, 20);
    member.warm_up = pdas == 20;
    mix.push_back(std::move(member));
  }
  {
    pepa::ClientServerParams params;
    params.request_rate = rng.jitter(1.5, kRateSpread);
    params.response_rate = rng.jitter(2.0, kRateSpread);
    params.servers = 20;
    fingerprint.add(params.request_rate);
    fingerprint.add(params.response_rate);
    Member member;
    member.label = "client_server[200cl,20sv]";
    member.build = [params] { return pepa::client_server(200, params); };
    member.expected_states = pepa::client_server_quotient_states(200, 20);
    mix.push_back(std::move(member));
  }
  {
    // The no-collapse control: distinct per-station actions, so the
    // quotient is the full space.
    pepa::RingParams params;
    params.on_rate = rng.jitter(1.0, kRateSpread);
    params.off_rate = rng.jitter(0.8, kRateSpread);
    fingerprint.add(params.on_rate);
    fingerprint.add(params.off_rate);
    Member member;
    member.label = "ring[13]";
    member.build = [params] { return pepa::ring(13, params); };
    member.expected_states = pepa::ring_states(13);
    mix.push_back(std::move(member));
  }
  run_chains(context, std::move(mix), /*aggregate=*/true, fingerprint);
}

}  // namespace perfbench
