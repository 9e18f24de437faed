// perfbench: the repository benchmark.  Runs one seeded workload over the
// Choreographer libraries' public calls, checks every output, and prints
// its metrics as a JSON object on the last line of standard output.
//
//   perfbench --workload figure4_batch --seed 7 --seconds 10 --trace 0
//
// Workloads: figure4_batch, large_chain, exact_quotient, rate_sweep.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// --short runs one round per window (a quick check of names and the
// correctness gate); --inject-fault corrupts one reference so the gate must
// fail.  Exit status: 0 when every op passed its checks, 1 when any failed,
// 2 on a usage or unexpected error (no result line then).
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--short] [--inject-fault] [--work-dir DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string trace = value();
        if (trace != "0" && trace != "1") usage("--trace takes 0 or 1");
        args.trace = trace == "1";
      } else if (flag == "--short") {
        args.quick = true;
      } else if (flag == "--inject-fault") {
        args.inject_fault = true;
      } else if (flag == "--work-dir") {
        args.work_dir = value();
      } else {
        usage("unknown argument " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Report report;
  Context context{args, report, available_cpus()};
  try {
    std::filesystem::create_directories(args.work_dir);
    report.info("workload " + args.workload + " seed " +
                std::to_string(args.seed) + " seconds " +
                exact(args.seconds) + " trace " + (args.trace ? "1" : "0") +
                " cpus " + std::to_string(context.cpus));
    if (args.workload == "figure4_batch") {
      run_figure4_batch(context);
    } else if (args.workload == "large_chain") {
      run_large_chain(context);
    } else if (args.workload == "exact_quotient") {
      run_exact_quotient(context);
    } else if (args.workload == "rate_sweep") {
      run_rate_sweep(context);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 2;
  }
  return report.emit();
}
