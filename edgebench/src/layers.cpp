#include "layers.hpp"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <string_view>
#include <unordered_map>

namespace edgebench {

namespace obs = approxiot::obs;

const std::vector<std::string>& tree_layers() {
  static const std::vector<std::string> kLayers = {"L0", "L1", "L2", "L3",
                                                   "root"};
  return kLayers;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

/// "tree/L2/n7/exec_us" -> ("L2", "exec_us"); "tree/root/items_in" ->
/// ("root", "items_in"). Empty layer for every other name.
std::pair<std::string, std::string> split_node_stat(const std::string& name) {
  static const std::string kRoot = "tree/root/";
  if (name.rfind(kRoot, 0) == 0) return {"root", name.substr(kRoot.size())};
  if (name.rfind("tree/L", 0) != 0) return {};
  const std::size_t layer_end = name.find('/', 5);
  const std::size_t node_end = name.find('/', layer_end + 1);
  if (layer_end == std::string::npos || node_end == std::string::npos) {
    return {};
  }
  return {name.substr(5, layer_end - 5), name.substr(node_end + 1)};
}

std::string layer_of_node(const std::string& node) {
  if (node == "tree/root") return "root";
  return node.size() > 5 ? node.substr(5, node.find('/', 5) - 5) : "";
}

/// Median of base-2 histograms merged bucket by bucket (bucket bounds
/// [upper/2, upper), the first [0, 2)), interpolated within the bucket.
double merged_median(
    const std::map<double, std::uint64_t>& buckets) {
  std::uint64_t total = 0;
  for (const auto& [upper, count] : buckets) total += count;
  if (total == 0) return 0.0;
  const double target = 0.5 * static_cast<double>(total);
  double seen = 0.0;
  for (const auto& [upper, count] : buckets) {
    const double next = seen + static_cast<double>(count);
    if (next >= target) {
      const double lower = upper <= 2.0 ? 0.0 : upper / 2.0;
      return lower + (upper - lower) * (target - seen) /
                         static_cast<double>(count);
    }
    seen = next;
  }
  return buckets.rbegin()->first;
}

/// Per node, the time between consecutive stage-execute spans: how long
/// the node waited for input, for a worker or for room downstream. The
/// kEvents runtime records no wait_us histogram, so the trace is the
/// only source. The parser reads the fixed field order to_chrome_json
/// writes: every event starts with {"name":"…","ph":"…","pid":1,"tid":N,
/// and a thread_name event carries its track's name in args.
std::map<std::string, double> wait_us_per_layer(std::string_view json) {
  constexpr std::string_view kEvent = "{\"name\":\"";
  constexpr std::string_view kArgsName = "\"args\":{\"name\":\"";
  auto field = [json](std::size_t from, std::string_view key) {
    long long value = 0;
    const std::size_t at = json.find(key, from);
    if (at != std::string_view::npos) {
      const char* begin = json.data() + at + key.size();
      std::from_chars(begin, json.data() + json.size(), value);
    }
    return value;
  };
  std::unordered_map<long long, std::string> track_names;
  std::unordered_map<long long, long long> last_end;
  std::unordered_map<long long, double> wait_by_tid;
  for (std::size_t p = json.find(kEvent); p != std::string_view::npos;
       p = json.find(kEvent, p + 1)) {
    if (p == 0 || (json[p - 1] != '[' && json[p - 1] != ',')) continue;
    const std::size_t name_begin = p + kEvent.size();
    const std::size_t name_end = json.find('"', name_begin);
    const std::string_view name =
        json.substr(name_begin, name_end - name_begin);
    const std::size_t ph = json.find("\"ph\":\"", name_end);
    if (name_end == std::string_view::npos || ph == std::string_view::npos) {
      break;
    }
    const char phase = json[ph + 6];
    const long long tid = field(name_end, "\"tid\":");
    if (phase == 'M') {
      const std::size_t arg = json.find(kArgsName, name_end) + kArgsName.size();
      track_names[tid] = std::string(json.substr(arg, json.find('"', arg) - arg));
    } else if (phase == 'X' && name == "stage-execute") {
      const long long begin = field(name_end, "\"ts\":");
      const long long end = begin + field(name_end, "\"dur\":");
      auto it = last_end.find(tid);
      if (it != last_end.end()) {
        wait_by_tid[tid] += static_cast<double>(begin - it->second);
      }
      last_end[tid] = end;
    }
  }
  std::map<std::string, double> per_layer;
  for (const auto& [tid, wait] : wait_by_tid) {
    per_layer[layer_of_node(track_names[tid])] += wait;
  }
  return per_layer;
}

}  // namespace

Metrics layer_metrics(const TracedRun& run) {
  const Phase& phase = *run.traced;
  const obs::StatsSnapshot& stats = phase.stats;
  Metrics m;
  auto put = [&m](const std::string& name, double value, const char* unit) {
    m[name] = Metric{value, unit};
  };
  auto counter = [&stats](const std::string& name) -> double {
    auto it = stats.counters.find(name);
    return it == stats.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };

  const double wall_us = phase.wall_s * 1e6;
  const double node_intervals =
      static_cast<double>(phase.node_count) *
      static_cast<double>(phase.fold_us.size());

  // --- runtime: the generator's side of backpressure, the scheduler, and
  // the per-layer roll-up of node and channel stats.
  put("runtime.push_us_p50", quantile(phase.push_us, 0.5), "us");
  put("runtime.push_us_p99", quantile(phase.push_us, 0.99), "us");
  put("runtime.push_blocked_share", sum(phase.push_us) / wall_us, "share");
  put("runtime.cpu_us_per_node_interval", phase.cpu_s * 1e6 / node_intervals,
      "us");
  double runs = 0.0;
  double steals = 0.0;
  for (const auto& [name, value] : stats.counters) {
    if (name.rfind("tree/sched/", 0) != 0) continue;
    if (name.size() > 5 && name.compare(name.size() - 5, 5, "/runs") == 0) {
      runs += static_cast<double>(value);
    } else if (name.size() > 7 &&
               name.compare(name.size() - 7, 7, "/steals") == 0) {
      steals += static_cast<double>(value);
    }
  }
  put("runtime.sched_runs_per_node_interval", runs / node_intervals, "ratio");
  put("runtime.sched_steal_share", runs > 0.0 ? steals / runs : 0.0, "share");
  put("runtime.drain_us_p50", quantile(phase.drain_us, 0.5), "us");
  put("runtime.query_us_p50", quantile(phase.query_us, 0.5), "us");
  put("runtime.query_us_p99", quantile(phase.query_us, 0.99), "us");
  put("latency_p99_us", quantile(interval_latencies_us(*run.untraced), 0.99),
      "us");
  put("answer_latency_p90_us",
      quantile(answer_latencies_us(*run.untraced), 0.9), "us");

  struct LayerSums {
    double exec_us{0.0};
    std::map<double, std::uint64_t> exec_buckets;
    double block_wait_us{0.0};
    double occupancy_sum{0.0};
    double occupancy_count{0.0};
    double items_in{0.0};
  };
  std::map<std::string, LayerSums> layers;
  for (const auto& [name, h] : stats.histograms) {
    const auto [layer, stat] = split_node_stat(name);
    if (layer.empty()) continue;
    LayerSums& s = layers[layer];
    if (stat == "exec_us") {
      s.exec_us += h.sum;
      for (const auto& [upper, count] : h.buckets) s.exec_buckets[upper] += count;
    } else if (stat == "occupancy") {
      s.occupancy_sum += h.sum;
      s.occupancy_count += static_cast<double>(h.count);
    } else if (stat.size() > 14 &&
               stat.compare(stat.size() - 14, 14, "/block_wait_us") == 0) {
      s.block_wait_us += h.sum;
    }
  }
  for (const auto& [name, value] : stats.counters) {
    const auto [layer, stat] = split_node_stat(name);
    if (!layer.empty() && stat == "items_in") {
      layers[layer].items_in += static_cast<double>(value);
    }
  }
  const std::map<std::string, double> wait = wait_us_per_layer(phase.trace_json);
  double exec_total = 0.0;
  for (std::size_t i = 0; i < tree_layers().size(); ++i) {
    const std::string& layer = tree_layers()[i];
    const LayerSums& s = layers[layer];
    exec_total += s.exec_us;
    auto w = wait.find(layer);
    put("runtime.wait_us_sum." + layer, w == wait.end() ? 0.0 : w->second,
        "us");
    put("runtime.block_wait_us_sum." + layer, s.block_wait_us, "us");
    put("runtime.occupancy_mean." + layer,
        s.occupancy_count > 0.0 ? s.occupancy_sum / s.occupancy_count : 0.0,
        "share");
    put("core.exec_us_sum." + layer, s.exec_us, "us");
    put("core.exec_us_p50." + layer, merged_median(s.exec_buckets), "us");
    put("core.items_in." + layer, s.items_in, "count");
    const auto& forwarded = phase.at_end.items_forwarded_per_layer;
    double out = 0.0;
    if (layer == "root") {
      out = static_cast<double>(phase.root_items);
    } else if (i < forwarded.size()) {
      out = static_cast<double>(forwarded[i]);
    }
    put("core.items_forwarded." + layer, out, "count");
    put("core.keep_ratio." + layer, s.items_in > 0.0 ? out / s.items_in : 0.0,
        "ratio");
  }

  // --- core: kernels, the single-threaded baseline, the close path and
  // the control plane.
  put("core.kernels.count_items", counter("core/kernels/count_items"),
      "count");
  put("core.kernels.scatter_items", counter("core/kernels/scatter_items"),
      "count");
  put("core.kernels.reservoir_items", counter("core/kernels/reservoir_items"),
      "count");
  auto tier = stats.gauges.find("core/kernels/active_tier");
  put("core.kernels.active_tier", tier == stats.gauges.end() ? 0.0 : tier->second,
      "tier");
  put("core.oracle_items_per_s", run.oracle_items_per_s, "items/s");
  put("core.exec_share",
      exec_total / (static_cast<double>(kEventWorkers) * wall_us), "share");
  put("core.close_us_p50", quantile(phase.close_us, 0.5), "us");
  put("core.control_publishes", counter("tree/policy/publishes"), "count");
  auto fraction = stats.gauges.find("tree/policy/fraction");
  put("core.final_fraction",
      fraction == stats.gauges.end() ? run.fraction : fraction->second,
      "fraction");

  // --- workload: how late the open-loop generator ran.
  put("workload.gen_lag_p50_us", quantile(phase.gen_lag_us, 0.5), "us");
  put("workload.gen_lag_max_us",
      phase.gen_lag_us.empty()
          ? 0.0
          : *std::max_element(phase.gen_lag_us.begin(), phase.gen_lag_us.end()),
      "us");

  // --- obs: what tracing cost.
  const double untraced = items_per_s(*run.untraced);
  put("obs.overhead_pct",
      untraced > 0.0
          ? 100.0 * (untraced - items_per_s(phase)) / untraced
          : 0.0,
      "%");
  put("obs.trace_events", static_cast<double>(phase.trace_events), "count");
  return m;
}

}  // namespace edgebench
