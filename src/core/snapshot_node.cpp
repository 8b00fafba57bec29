#include "core/snapshot_node.hpp"

#include <cmath>
#include <stdexcept>

#include "core/checkpoint.hpp"

namespace approxiot::core {

SnapshotNode::SnapshotNode(SnapshotNodeConfig config) : config_(config) {
  if (config.period == 0) {
    throw std::invalid_argument("snapshot period must be >= 1");
  }
  if (config.phase >= config.period) {
    throw std::invalid_argument("snapshot phase must be < period");
  }
}

void SnapshotNode::set_fraction(double fraction) {
  if (fraction <= 0.0) {
    config_.period = 1000000;  // effectively drop everything
  } else if (fraction >= 1.0) {
    config_.period = 1;
  } else {
    config_.period =
        static_cast<std::uint32_t>(std::lround(1.0 / fraction));
    if (config_.period == 0) config_.period = 1;
  }
  if (config_.phase >= config_.period) config_.phase = 0;
}

void SnapshotNode::save_state(CheckpointWriter& writer) const {
  writer.put_u64(config_.period);
  writer.put_u64(config_.phase);
  writer.put_u64(interval_index_);
  writer.put_u64(policy_epoch_);
}

void SnapshotNode::restore_state(CheckpointReader& reader) {
  config_.period = static_cast<std::uint32_t>(reader.get_u64());
  config_.phase = static_cast<std::uint32_t>(reader.get_u64());
  interval_index_ = reader.get_u64();
  policy_epoch_ = reader.get_u64();
}

void SnapshotNode::process_interval(const std::vector<ItemBundle>& psi,
                                    std::vector<SampledBundle>& out) {
  // Interval boundary = policy boundary: re-derive the decimation period
  // from the resolved fraction. Only an actual epoch change re-rounds the
  // period, so an unchanged plane cannot drift the phase alignment.
  if (config_.policy.bound()) {
    ResourceBudget current;
    current.sampling_fraction = 1.0 / static_cast<double>(config_.period);
    const PolicyDecision decision = config_.policy.resolve(current);
    if (decision.epoch != policy_epoch_ || interval_index_ == 0) {
      set_fraction(decision.budget.sampling_fraction);
    }
    policy_epoch_ = decision.epoch;
  }

  const bool keep =
      (interval_index_ % config_.period) == config_.phase;
  ++interval_index_;
  ++metrics_.intervals;

  out.reserve(psi.size());  // exact: at most one output per input pair
  std::size_t produced = 0;
  for (const ItemBundle& bundle : psi) {
    if (bundle.items.empty()) continue;
    metrics_.items_in += bundle.items.size();
    if (!keep) continue;

    SampledBundle& sampled = output_slot(out, produced++);
    sampled.sample.assign(bundle.items, stratify_scratch_);
    sampled.w_out.clear();
    sampled.policy_epoch = policy_epoch_;
    // Each kept snapshot stands for `period` intervals.
    const double scale = static_cast<double>(config_.period);
    for (const Stratum& s : sampled.sample.strata()) {
      sampled.w_out.set(s.id, bundle.w_in.get(s.id) * scale);
      metrics_.items_out += s.len;
    }
  }
  out.resize(produced);
}

}  // namespace approxiot::core
