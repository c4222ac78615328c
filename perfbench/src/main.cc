// eris_perfbench: one wall-clock benchmark run of one workload.
//
//   eris_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir> [--git-sha <sha>]
//
// Prints a host/provenance line, an informational detail line, and as the
// last line one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones of a traced run. Exits non-zero on bad arguments.
#include <sys/prctl.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common/simd.h"
#include "harness.h"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::RunResult;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
           ": {\"value\": " + num + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* git_sha) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = val == "1";
    } else if (key == "--work-dir") {
      args->work_dir = val;
    } else if (key == "--git-sha") {
      *git_sha = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string git_sha = "unknown";
  if (!ParseArgs(argc, argv, &args, &git_sha)) {
    std::fprintf(stderr,
                 "usage: %s --workload <point_read|durable_mixed|analytics|"
                 "skew_rebalance> --seed <n> --seconds <s> --trace <0|1> "
                 "--work-dir <dir> [--git-sha <sha>]\n",
                 argv[0]);
    return 2;
  }
  RunResult (*run)(const Args&) = nullptr;
  if (args.workload == "point_read") run = perfbench::RunPointRead;
  if (args.workload == "durable_mixed") run = perfbench::RunDurableMixed;
  if (args.workload == "analytics") run = perfbench::RunAnalytics;
  if (args.workload == "skew_rebalance") run = perfbench::RunSkewRebalance;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  // Threads inherit the timer slack of the thread that creates them, so
  // this reaches the AEU threads Engine::Start() spawns. With the default
  // 50 us slack an idle AEU's 50 us sleep lasts 50-100 us depending on
  // unrelated interrupts on its CPU, which made point-lookup latency
  // bimodal from one run to the next.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const long timer_slack_ns = prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);

#ifdef ERIS_FAULT_INJECTION
  const bool fault_injection = true;
#else
  const bool fault_injection = false;
#endif
  std::printf(
      "{\"host\": {\"nproc\": %u, \"simd_backend\": %s, \"build_type\": %s, "
      "\"fault_injection\": %s, \"git_sha\": %s, \"wal_fs\": %s, "
      "\"timer_slack_ns\": %ld, \"engine\": %s, \"workload\": %s, "
      "\"seed\": %llu, \"trace\": %d}}\n",
      std::thread::hardware_concurrency(),
      JsonString(eris::simd::BackendName()).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      fault_injection ? "true" : "false", JsonString(git_sha).c_str(),
      JsonString(perfbench::FilesystemType(args.work_dir)).c_str(),
      timer_slack_ns, JsonString(perfbench::EngineShape()).c_str(),
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::fflush(stdout);

  RunResult result = run(args);
  if (!result.detail.empty()) {
    std::printf("{\"detail\": %s}\n", JsonMetrics(result.detail).c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      JsonMetrics(result.metrics).c_str());
  return 0;
}
