// bbv_e2e: the repository's end-to-end benchmark. One workload per process:
//
//   bbv_e2e --workload=NAME --seed=N [--seconds=S] [--trace=PATH] [--smoke]
//   bbv_e2e --oracle-selftest
//
// NAME is serve_fleet, serve_monitored, train_income, validate_batch or all.
// A measured run prints the end-to-end metrics, a traced run (--trace) the
// per-layer breakdown and writes its spans to PATH. Every run checks its
// outputs after the timed region and exits non-zero on any mismatch. Lines:
//
//   METRIC <workload> <name> <value> <unit> n=<samples>
//   OPS <workload> attempted=<n> failed=<n>
//   DIGEST <workload> <hex>      (equal for equal seeds, traced or not)
//   FAIL <workload> <message>

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/e2e/e2e.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/telemetry.h"

namespace bbv::bench::e2e {
namespace {

/// Threads the library's pool runs with in every measured run: half the
/// cores the benchmark requires. Every ParallelFor waits for its slowest
/// helper, so with one thread per core any other process on the machine
/// (the run's parent included) stalls fork-joins; with two cores spare, a
/// 4-core VM measured about half the run-to-run spread in rows_per_s on
/// serve_fleet, serve_monitored and validate_batch.
constexpr const char* kThreads = "2";
constexpr int kMinCores = 4;

using WorkloadFn = WorkloadResult (*)(const RunSpec&, Tracer&);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> kWorkloads = {
      {"serve_fleet", &RunServeFleet},
      {"serve_monitored", &RunServeMonitored},
      {"train_income", &RunTrainIncome},
      {"validate_batch", &RunValidateBatch},
  };
  return kWorkloads;
}

/// CPUs this process may run on (what `nproc` reports).
int UsableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return common::HardwareThreadCount();
  }
  return CPU_COUNT(&set);
}

std::string CompilerId() {
#if defined(__clang__)
  return "clang-" + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc-" + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

void PrintMetric(const std::string& workload, const Metric& metric) {
  std::printf("METRIC %s %s %.17g %s n=%zu\n", workload.c_str(),
              metric.name.c_str(), metric.value, metric.unit.c_str(),
              metric.samples);
}

struct Args {
  std::string workload;
  RunSpec spec;
  std::string trace_path;
  bool oracle_selftest = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (common::StartsWith(arg, "--workload=")) {
      args.workload = arg.substr(11);
    } else if (common::StartsWith(arg, "--seed=")) {
      args.spec.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (common::StartsWith(arg, "--seconds=")) {
      args.spec.seconds = std::strtod(arg.c_str() + 10, nullptr);
    } else if (common::StartsWith(arg, "--trace=")) {
      args.trace_path = arg.substr(8);
    } else if (arg == "--smoke") {
      args.spec.smoke = true;
    } else if (arg == "--oracle-selftest") {
      args.oracle_selftest = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (args.oracle_selftest) return true;
  if (args.workload != "all" && Workloads().count(args.workload) == 0) {
    std::fprintf(stderr,
                 "usage: bbv_e2e --workload=serve_fleet|serve_monitored|"
                 "train_income|validate_batch|all --seed=N [--seconds=S] "
                 "[--trace=PATH] [--smoke] | --oracle-selftest\n");
    return false;
  }
  if (!(args.spec.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return false;
  }
  return true;
}

/// Runs one workload and prints its lines; returns false on any failure.
bool RunOne(const std::string& name, WorkloadFn run, const Args& args,
            bool several) {
  Tracer tracer(!args.trace_path.empty());
  WorkloadResult result = run(args.spec, tracer);
  if (tracer.enabled()) {
    // Every per-layer metric is printed; a layer this workload never
    // touches reads 0.
    for (const auto& [metric, unit] : PerLayerMetrics()) {
      const Metric* found = nullptr;
      for (const Metric& candidate : result.metrics) {
        if (candidate.name == metric) found = &candidate;
      }
      PrintMetric(name,
                  found != nullptr ? *found : Metric{metric, 0.0, unit, 0});
    }
    const std::string path =
        several ? args.trace_path + "." + name : args.trace_path;
    if (!tracer.WriteJson(path, result.telemetry_json)) {
      result.Fail("cannot write trace " + path);
    }
  } else {
    for (const Metric& metric : result.metrics) PrintMetric(name, metric);
  }
  std::printf("OPS %s attempted=%llu failed=%llu\n", name.c_str(),
              static_cast<unsigned long long>(result.ops),
              static_cast<unsigned long long>(result.failed_ops));
  std::printf("DIGEST %s %016llx\n", name.c_str(),
              static_cast<unsigned long long>(result.digest));
  for (const std::string& failure : result.failures) {
    std::printf("FAIL %s %s\n", name.c_str(), failure.c_str());
  }
  std::fflush(stdout);
  return result.failed_ops == 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) return 2;
  if (args.oracle_selftest) {
    const std::vector<std::string> failures = OracleSelfTest();
    for (const std::string& failure : failures) {
      std::printf("FAIL oracle_selftest %s\n", failure.c_str());
    }
    std::printf("oracle_selftest %s\n", failures.empty() ? "ok" : "FAILED");
    return failures.empty() ? 0 : 1;
  }
  const int cores = UsableCores();
  if (cores < kMinCores && !args.spec.smoke) {
    std::fprintf(stderr,
                 "bbv_e2e: refusing to measure on %d usable cores; the "
                 "benchmark pins BBV_THREADS=%s and needs at least %d "
                 "(nproc >= %d)\n",
                 cores, kThreads, kMinCores, kMinCores);
    return 2;
  }
  ::setenv("BBV_THREADS", kThreads, 1);
  std::printf(
      "HEADER hardware_concurrency=%d nproc=%d bbv_threads=%d telemetry=%s "
      "compiler=%s build_type=%s seed=%llu seconds=%g smoke=%d traced=%d\n",
      common::HardwareThreadCount(), cores, common::ConfiguredThreadCount(),
      common::telemetry::Enabled() ? "on" : "off", CompilerId().c_str(),
      BBV_E2E_BUILD_TYPE, static_cast<unsigned long long>(args.spec.seed),
      args.spec.seconds, args.spec.smoke ? 1 : 0,
      args.trace_path.empty() ? 0 : 1);
  std::fflush(stdout);

  bool ok = true;
  for (const auto& [name, run] : Workloads()) {
    if (args.workload != "all" && args.workload != name) continue;
    ok = RunOne(name, run, args, args.workload == "all") && ok;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bbv::bench::e2e

int main(int argc, char** argv) { return bbv::bench::e2e::Main(argc, argv); }
