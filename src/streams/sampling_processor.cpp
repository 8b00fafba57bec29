#include "streams/sampling_processor.hpp"

#include "common/logging.hpp"

namespace approxiot::streams {

SamplingProcessor::SamplingProcessor(core::NodeConfig config)
    : node_(config), interval_(config.interval) {}

void SamplingProcessor::init(ProcessorContext& context) {
  context_ = &context;
  context.schedule(interval_);
}

void SamplingProcessor::process(const flowqueue::Record& record) {
  auto bundle = core::decode_bundle(record.value);
  if (!bundle) {
    ++decode_failures_;
    AIOT_LOG(kWarn, "streams.sampling")
        << "dropping undecodable record: " << bundle.status().to_string();
    return;
  }
  psi_.push_back(std::move(bundle).value());
}

void SamplingProcessor::punctuate(SimTime now) { flush(now); }

void SamplingProcessor::flush(SimTime boundary) {
  if (psi_.empty()) return;
  node_.process_interval(psi_, outputs_);
  psi_.clear();
  for (const core::SampledBundle& out : outputs_) {
    if (out.item_count() == 0) continue;
    flowqueue::Record record;
    record.key = context_->node_name();
    record.value = core::encode_bundle(out);
    record.timestamp = boundary;
    context_->forward(std::move(record));
  }
}

void SamplingProcessor::close() {
  flush(context_ != nullptr ? context_->stream_time() : SimTime::zero());
}

SrsProcessor::SrsProcessor(core::SrsNodeConfig config) : node_(config) {}

void SrsProcessor::init(ProcessorContext& context) { context_ = &context; }

void SrsProcessor::process(const flowqueue::Record& record) {
  auto bundle = core::decode_bundle(record.value);
  if (!bundle) {
    ++decode_failures_;
    AIOT_LOG(kWarn, "streams.srs")
        << "dropping undecodable record: " << bundle.status().to_string();
    return;
  }
  psi_.clear();
  psi_.push_back(std::move(bundle).value());
  node_.process_interval(psi_, outputs_);
  for (const core::SampledBundle& out : outputs_) {
    if (out.item_count() == 0) continue;
    flowqueue::Record forwarded;
    forwarded.key = record.key;
    forwarded.value = core::encode_bundle(out);
    forwarded.timestamp = record.timestamp;
    context_->forward(std::move(forwarded));
  }
}

}  // namespace approxiot::streams
