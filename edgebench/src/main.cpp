// edgebench: the repository's end-to-end benchmark of the concurrent edge
// tree. One run measures one workload for one seed and prints, as its last
// line, {"correct", "attempted", "failed", "metrics"}. Without --trace the
// metrics are the end-to-end ones; with --trace 1 the run measures an
// untraced and a traced phase and prints the per-layer metrics of the
// traced one, writing its Perfetto trace and per-layer JSON to --out-dir.
//
//   edgebench --workload testbed_bulk --seed 1 --seconds 20 --trace 0
//
// See edgebench/README.md for the workloads and metric definitions.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "layers.hpp"
#include "runner.hpp"
#include "workload/ground_truth.hpp"

namespace {

using namespace edgebench;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{20.0};
  bool trace{false};
  /// Shrunk intervals and prefixes, for the self-check.
  bool toy{false};
  /// Corrupts one window result before the checks (self-check only).
  bool perturb{false};
  std::string out_dir{".bench_out"};
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "edgebench: " << problem << "\n"
            << "usage: edgebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--toy] [--perturb] [--out-dir DIR]\n";
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
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--toy") {
      args.toy = true;
    } else if (flag == "--perturb") {
      args.perturb = true;
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Metrics end_to_end(const Phase& phase, std::size_t accuracy_windows,
                   double setup_s) {
  Metrics m;
  auto put = [&m](const std::string& name, double value, const char* unit) {
    m[name] = Metric{value, unit};
  };
  double error_pct = 0.0;
  double covered = 0.0;
  for (std::size_t w = 0; w < accuracy_windows; ++w) {
    const Window& window = phase.windows[w];
    error_pct += approxiot::workload::accuracy_loss_percent(
        window.result.sum.point, window.exact_sum);
    covered += window.result.sum.covers(window.exact_sum) ? 1.0 : 0.0;
  }
  const auto& prefix = phase.at_prefix;
  double forwarded = 0.0;
  for (const auto f : prefix.items_forwarded_per_layer) {
    forwarded += static_cast<double>(f);
  }
  const double n = static_cast<double>(accuracy_windows);
  put("setup_s", setup_s, "s");
  put("items_per_s", items_per_s(phase), "items/s");
  put("latency_p50_us", quantile(interval_latencies_us(phase), 0.5), "us");
  put("answer_latency_p50_us", quantile(answer_latencies_us(phase), 0.5),
      "us");
  put("rel_error_pct", error_pct / n, "%");
  put("ci_coverage", covered / n, "share");
  put("forwarded_items_per_input",
      forwarded / static_cast<double>(prefix.items_ingested), "ratio");
  put("peak_rss_mb", peak_rss_mb(), "MB");
  return m;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream file(path);
  file << text;
  if (!file) throw std::runtime_error("cannot write " + path.string());
}

std::string metrics_json(const Args& args, const Metrics& metrics) {
  std::string out = "{\"workload\": \"" + args.workload +
                    "\", \"seed\": " + std::to_string(args.seed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\n  \"" + name + "\": {\"value\": " + number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "\n}}\n";
}

int run(const Args& args) {
  const Workload& workload = find_workload(args.workload);
  Inputs inputs = make_inputs(workload, args.seed, args.toy);
  const std::size_t accuracy_windows =
      args.toy ? workload.oracle_windows : workload.accuracy_windows;

  std::vector<Phase> phases;
  Metrics metrics;
  std::vector<CheckResult> checks;
  auto checked = [&](Phase phase) {
    if (args.perturb && !phase.windows.empty()) {
      phase.windows.front().result.estimated_count += 1.0;
    }
    checks.push_back(check_phase(workload, inputs, args.seed, phase));
    phases.push_back(std::move(phase));
  };

  if (!args.trace) {
    constexpr std::size_t kSetupReps = 31;
    const double setup_s =
        quantile(measure_setup(workload, args.seed, kSetupReps), 0.5);
    PhaseOptions options;
    options.seconds = args.seconds;
    options.min_windows = accuracy_windows;
    checked(run_phase(workload, inputs, args.seed, options));
    if (phases.back().windows.size() < accuracy_windows) {
      throw std::runtime_error("the phase hit its time cap before closing " +
                               std::to_string(accuracy_windows) + " windows");
    }
    metrics = end_to_end(phases.back(), accuracy_windows, setup_s);
  } else {
    // Untraced then traced, half the time each; the difference between
    // the two is what tracing costs.
    PhaseOptions options;
    options.seconds = args.seconds / 2.0;
    options.min_windows = workload.oracle_windows;
    checked(run_phase(workload, inputs, args.seed, options));
    options.traced = true;
    checked(run_phase(workload, inputs, args.seed, options));
    TracedRun traced;
    traced.untraced = &phases.front();
    traced.traced = &phases.back();
    traced.oracle_items_per_s = checks.back().oracle_items_per_s;
    traced.fraction = workload.fraction;
    metrics = layer_metrics(traced);
    const std::filesystem::path dir(args.out_dir);
    std::filesystem::create_directories(dir);
    write_file(dir / (args.workload + "-trace.json"), phases.back().trace_json);
    write_file(dir / (args.workload + "-layers.json"),
               metrics_json(args, metrics));
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  for (const CheckResult& check : checks) {
    attempted += check.attempted;
    failed += check.failed;
    for (const std::string& problem : check.problems) {
      std::cerr << "edgebench: check failed: " << problem << "\n";
      correct = false;
    }
  }
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      std::cerr << "edgebench: metric " << name << " is not finite\n";
      correct = false;
    }
  }
  for (const Phase& phase : phases) {
    std::cout << "# " << args.workload << " seed " << args.seed << ": "
              << phase.fold_us.size() << " intervals (latency samples), "
              << phase.windows.size() << " windows, " << phase.wall_s
              << " s" << (phase.trace_events > 0 ? ", traced" : "")
              << ", generator "
              << (phase.generator_cpu >= 0
                      ? "on CPU " + std::to_string(phase.generator_cpu)
                      : std::string("unpinned"))
              << "\n";
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep interval-sized buffers (1.5 MB per leaf) on the heap. glibc's
  // defaults alternate between mmap/munmap churn and trimming the heap
  // top, so every interval would re-fault its buffers, and how many
  // faults a run takes varies from run to run.
  mallopt(M_MMAP_THRESHOLD, 8 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "edgebench: " << e.what() << "\n";
    return 2;
  }
}
