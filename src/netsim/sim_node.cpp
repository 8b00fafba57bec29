#include "netsim/sim_node.hpp"

#include <algorithm>
#include <utility>

namespace approxiot::netsim {

SimNode::SimNode(Simulator& sim, std::unique_ptr<core::PipelineStage> stage,
                 SimNodeConfig config)
    : sim_(&sim), stage_(std::move(stage)), config_(std::move(config)) {}

void SimNode::connect_uplink(Link* uplink, SimNode* parent) {
  uplink_ = uplink;
  parent_ = parent;
}

void SimNode::connect_root_sink(RootSink sink) {
  root_sink_ = std::move(sink);
}

void SimNode::start() {
  if (started_) return;
  started_ = true;
  sim_->schedule_after(config_.interval, [this]() { on_tick(); });
}

void SimNode::deliver(core::ItemBundle bundle) {
  if (bundle.items.empty()) return;
  items_arrived_ += bundle.items.size();

  // Single-server FIFO service: this bundle's processing completes after
  // everything already queued plus its own service demand.
  const double rate = config_.charge_on_output
                          ? config_.ingest_rate_items_per_s
                          : config_.service_rate_items_per_s;
  const double service_seconds =
      rate > 0.0 ? static_cast<double>(bundle.items.size()) / rate : 0.0;
  service_free_at_ = std::max(service_free_at_, sim_->now()) +
                     SimTime::from_seconds(service_seconds);

  // The bundle becomes visible to the interval machinery once serviced.
  auto shared = std::make_shared<core::ItemBundle>(std::move(bundle));
  sim_->schedule_at(service_free_at_,
                    [this, shared]() { psi_.push_back(std::move(*shared)); });
}

SimTime SimNode::backlog() const noexcept {
  const SimTime now = sim_->now();
  const SimTime busiest = std::max(service_free_at_, output_free_at_);
  return busiest > now ? busiest - now : SimTime::zero();
}

std::uint64_t SimNode::wire_size(
    const core::SampledBundle& bundle) const noexcept {
  return config_.bytes_header +
         bundle.w_out.size() * config_.bytes_per_weight_entry +
         bundle.item_count() * config_.bytes_per_item;
}

void SimNode::on_tick() {
  if (!psi_.empty()) {
    std::vector<core::ItemBundle> psi;
    psi.swap(psi_);
    // Outputs are moved into delivery events below, so a fresh vector
    // per tick: nothing is left to reuse.
    std::vector<core::SampledBundle> outputs;
    stage_->process_interval(psi, outputs);
    for (core::SampledBundle& out : outputs) {
      if (out.item_count() == 0) continue;
      items_forwarded_ += out.item_count();

      // Post-sampling service charge (datacenter query engine): the
      // surviving items occupy the server; delivery downstream happens
      // when their processing completes.
      SimTime ready = sim_->now();
      if (config_.charge_on_output &&
          config_.service_rate_items_per_s > 0.0) {
        const double seconds = static_cast<double>(out.item_count()) /
                               config_.service_rate_items_per_s;
        output_free_at_ = std::max(output_free_at_, sim_->now()) +
                          SimTime::from_seconds(seconds);
        ready = output_free_at_;
      }

      if (root_sink_) {
        if (ready > sim_->now()) {
          auto shared = std::make_shared<core::SampledBundle>(std::move(out));
          sim_->schedule_at(ready, [this, shared]() {
            root_sink_(*shared, sim_->now());
          });
        } else {
          root_sink_(out, sim_->now());
        }
      } else if (uplink_ != nullptr && parent_ != nullptr) {
        const std::uint64_t bytes = wire_size(out);
        auto bundle =
            std::make_shared<core::ItemBundle>(std::move(out).to_bundle());
        SimNode* parent = parent_;
        Link* uplink = uplink_;
        if (ready > sim_->now()) {
          sim_->schedule_at(ready, [uplink, bytes, parent, bundle]() {
            uplink->transfer(bytes, [parent, bundle]() {
              parent->deliver(std::move(*bundle));
            });
          });
        } else {
          uplink->transfer(bytes, [parent, bundle]() {
            parent->deliver(std::move(*bundle));
          });
        }
      }
    }
  }
  if (sim_->now() < tick_deadline_) {
    sim_->schedule_after(config_.interval, [this]() { on_tick(); });
  }
}

}  // namespace approxiot::netsim
