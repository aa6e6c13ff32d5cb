// perfbench: one seeded workload against the BOXes library, run in this
// process. Prints a readable report and, as its last line,
// PERFBENCH_RESULT {json} with every metric it measured; run.py builds this
// program and turns that line into the benchmark's result.
//
//   perfbench --workload=paper-xmark|query-resident|serve-durable
//             --seed=N --seconds=S --trace=0|1 --run_dir=DIR

#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

void RunPaperXmark(const RunOptions& options, Result* result);
void RunQueryResident(const RunOptions& options, Result* result);
void RunServeDurable(const RunOptions& options, Result* result);

namespace {

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    }
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options->trace = value == "1";
    } else if (arg == "--run_dir") {
      options->run_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  if (options->seconds <= 0 || options->run_dir.empty()) {
    std::fprintf(stderr, "--seconds > 0 and --run_dir are required\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    return 2;
  }
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "refusing to report metrics: this build is not optimized "
                 "(needs NDEBUG defined and optimization on)\n");
    return 2;
  }
  // Fix glibc's heap policy. Left dynamic, the mmap threshold rises whenever
  // a large block is freed, so how much of the query workload's temporaries
  // stay in the heap — and the peak RSS — depends on the order of frees,
  // which varies from run to run. Pinned at its 32 MiB maximum, every
  // temporary comes from the heap; with trimming off, freed heap memory is
  // reused rather than returned, so the timed phases neither map, unmap nor
  // fault in pages for their temporaries.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  ::mkdir(options.run_dir.c_str(), 0755);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("build: compiler=GCC %s flags=\"%s\" optimized=yes\n",
              __VERSION__, PERFBENCH_CXX_FLAGS);
  std::fflush(stdout);

  Result result;
  if (options.workload == "paper-xmark") {
    RunPaperXmark(options, &result);
  } else if (options.workload == "query-resident") {
    RunQueryResident(options, &result);
  } else if (options.workload == "serve-durable") {
    RunServeDurable(options, &result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  // Failed checks that are not single operations (invariants, recovery)
  // also count, so failed may exceed attempted; the rate floors at 0.
  const double attempted =
      result.attempted() == 0 ? 1.0 : static_cast<double>(result.attempted());
  result.Set("success_rate",
             std::max(0.0, (static_cast<double>(result.attempted()) -
                            static_cast<double>(result.failed())) /
                               attempted),
             "ratio");
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  std::printf("peak_rss_mb=%.1f attempted=%llu failed=%llu\n", PeakRssMb(),
              static_cast<unsigned long long>(result.attempted()),
              static_cast<unsigned long long>(result.failed()));
  result.PrintJson();
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
