// perfbench: outside-in benchmark of the Valkyrie engine.
//
//   perfbench --workload steady_4k|churn_4k|response_1k --seed N
//             --seconds S --trace 0|1
//   perfbench --self-test
//
// Prints an environment header, every metric with its unit, the checks'
// verdicts and the outcome digest; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "build_info.hpp"

namespace perfbench {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return 1;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload steady_4k|churn_4k|response_1k "
               "--seed N --seconds S --trace 0|1\n"
               "       perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      const int bad = self_test();
      std::printf("self-test: %s\n", bad == 0 ? "all checks caught" : "FAILED");
      return bad == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      have_workload = true;
      if (val == "steady_4k") {
        opt.workload = Workload::kSteady;
      } else if (val == "churn_4k") {
        opt.workload = Workload::kChurn;
      } else if (val == "response_1k") {
        opt.workload = Workload::kResponse;
      } else {
        std::fprintf(stderr, "unknown workload '%s'\n", val.c_str());
        return 2;
      }
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = val == "1";
    } else if (arg == "--epochs") {
      // Undocumented: the smoke test shortens rounds with it.
      opt.epochs = std::strtoull(val.c_str(), nullptr, 10);
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();

  const std::size_t nproc = online_cpus();
  const std::size_t threads = workload_threads(opt.workload);
  std::printf("== perfbench %s  seed=%" PRIu64 " seconds=%g trace=%d ==\n",
              workload_name(opt.workload), opt.seed, opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("env nproc=%zu threads=%zu compiler=\"%s\" build_type=%s\n",
              nproc, threads, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::printf("env flags=\"%s\"\n", PERFBENCH_FLAGS);
  std::printf("env cpu=\"%s\"\n", cpu_model().c_str());
  if (threads > nproc) {
    std::fprintf(stderr,
                 "refusing to run: %s needs %zu threads, nproc is %zu\n",
                 workload_name(opt.workload), threads, nproc);
    return 3;
  }
  std::fflush(stdout);

  const RunResult res = run_workload(opt);

  std::vector<CheckResult> checks = run_checks(
      opt.workload, res.outcome, res.rounds, res.rounds_diverged);
  if (opt.trace) {
    checks.push_back({"twin", 1, res.twin_exact ? 0u : 1u,
                      res.twin_exact ? "" : "traced twin diverged"});
  }
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  for (const CheckResult& c : checks) {
    attempted += c.attempted;
    failed += c.failed;
    if (c.failed != 0 && !c.decision_quality) correct = false;
  }
  const double failed_frac =
      attempted != 0 ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;

  std::vector<Metric> metrics = opt.trace ? res.per_layer : res.end_to_end;
  if (opt.trace) metrics.push_back({"failed_frac", failed_frac, "ratio"});

  std::printf("rounds=%" PRIu64 " timed_epochs=%" PRIu64
              " quiet_epochs=%zu (the sample behind the timing figures)\n",
              res.rounds, res.timed_epochs, res.quiet_epochs);
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!opt.trace) {
    // Decision quality and failures, printed on every run; the JSON of the
    // traced run carries them.
    const Outcome& o = res.outcome;
    std::printf("metric %-28s %16.6f %s\n", "benign_slowdown_pct",
                o.benign_slowdown_pct, "%");
    std::printf("metric %-28s %16.6f %s\n", "attack_kill_epochs_p50",
                o.attack_kill_epochs_p50, "epochs");
    std::printf("metric %-28s %16.6f %s\n", "attack_damage_epochs",
                o.attack_damage_epochs, "epochs");
    std::printf("metric %-28s %16.6f %s\n", "failed_frac", failed_frac,
                "ratio");
  }
  for (const CheckResult& c : checks) {
    std::printf("check %-16s %s attempted=%" PRIu64 " failed=%" PRIu64
                "%s%s%s\n",
                c.name.c_str(), c.failed == 0 ? "ok  " : "FAIL", c.attempted,
                c.failed, c.decision_quality ? " (decision quality)" : "",
                c.detail.empty() ? "" : "  ", c.detail.c_str());
  }
  std::printf("digest %s seed=%" PRIu64 " %s\n", workload_name(opt.workload),
              opt.seed, res.outcome.digest().c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + json_escape(metrics[i].name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            json_escape(metrics[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
