// End-to-end tests of the ApproxIoT sampling module mounted in the
// streams engine over flowqueue topics — the architecture of the paper's
// Fig. 4 in miniature.
#include "streams/sampling_processor.hpp"

#include <gtest/gtest.h>

#include "core/estimators.hpp"
#include "flowqueue/producer.hpp"
#include "streams/driver.hpp"

namespace approxiot::streams {
namespace {

core::NodeConfig fixed_node(std::size_t sample_size,
                            SimTime interval = SimTime::from_seconds(1.0)) {
  core::NodeConfig config;
  config.cost_function = "fixed";
  config.budget.fixed_sample_size = sample_size;
  config.interval = interval;
  return config;
}

std::vector<Item> n_items(SubStreamId id, std::size_t n, double value = 1.0) {
  std::vector<Item> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(Item{id, value, 0});
  return out;
}

class SamplingProcessorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(broker_.create_topic("raw", 1).is_ok());
    ASSERT_TRUE(broker_.create_topic("sampled", 1).is_ok());
  }

  void publish_bundle(const core::ItemBundle& bundle, SimTime at) {
    flowqueue::Producer producer(broker_);
    ASSERT_TRUE(
        producer.send("raw", "src", core::encode_bundle(bundle), at).is_ok());
  }

  core::ThetaStore drain_sampled_topic() {
    core::ThetaStore theta;
    std::vector<flowqueue::Record> records;
    auto topic = broker_.topic("sampled");
    EXPECT_TRUE(topic.is_ok());
    topic.value()->partition(0).read(0, 100000, records);
    for (const auto& record : records) {
      auto bundle = core::decode_bundle(record.value);
      EXPECT_TRUE(bundle.is_ok());
      core::SampledBundle sampled;
      sampled.w_out = bundle.value().w_in;
      for (const Item& item : bundle.value().items) {
        sampled.sample[item.source].push_back(item);
      }
      theta.add(sampled);
    }
    return theta;
  }

  flowqueue::Broker broker_;
};

TEST_F(SamplingProcessorTest, SamplesAndForwardsPerInterval) {
  TopologyBuilder builder;
  builder.add_source("src", "raw")
      .add_processor("samp",
                     []() {
                       return std::make_unique<SamplingProcessor>(
                           fixed_node(10));
                     },
                     {"src"})
      .add_sink("out", "sampled", {"samp"});
  auto topo = builder.build();
  ASSERT_TRUE(topo.is_ok());

  TopologyDriver driver(broker_, std::move(topo).value(), "test");
  ASSERT_TRUE(driver.start().is_ok());

  core::ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 100, 2.0);
  publish_bundle(bundle, SimTime::from_millis(100));
  ASSERT_TRUE(driver.run_until_idle().is_ok());
  ASSERT_TRUE(driver.stop().is_ok());  // flush the open interval

  core::ThetaStore theta = drain_sampled_topic();
  EXPECT_EQ(theta.sampled_count(SubStreamId{1}), 10u);
  // Count invariant: 10 items at weight 10 reconstruct 100 originals.
  EXPECT_NEAR(theta.estimated_original_count(SubStreamId{1}), 100.0, 1e-9);
  // All-equal values: the sum estimate is exact.
  EXPECT_NEAR(core::estimate_total_sum(theta), 200.0, 1e-9);
}

TEST_F(SamplingProcessorTest, TwoLayerChainComposesWeights) {
  ASSERT_TRUE(broker_.create_topic("mid", 1).is_ok());

  TopologyBuilder layer1;
  layer1.add_source("src", "raw")
      .add_processor("edge",
                     []() {
                       return std::make_unique<SamplingProcessor>(
                           fixed_node(20));
                     },
                     {"src"})
      .add_sink("to_mid", "mid", {"edge"});
  auto topo1 = layer1.build();
  ASSERT_TRUE(topo1.is_ok());

  TopologyBuilder layer2;
  layer2.add_source("src", "mid")
      .add_processor("dc",
                     []() {
                       return std::make_unique<SamplingProcessor>(
                           fixed_node(5));
                     },
                     {"src"})
      .add_sink("out", "sampled", {"dc"});
  auto topo2 = layer2.build();
  ASSERT_TRUE(topo2.is_ok());

  TopologyDriver d1(broker_, std::move(topo1).value(), "l1");
  TopologyDriver d2(broker_, std::move(topo2).value(), "l2");
  ASSERT_TRUE(d1.start().is_ok());
  ASSERT_TRUE(d2.start().is_ok());

  core::ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 400);
  publish_bundle(bundle, SimTime::from_millis(10));

  ASSERT_TRUE(d1.run_until_idle().is_ok());
  ASSERT_TRUE(d1.stop().is_ok());
  ASSERT_TRUE(d2.run_until_idle().is_ok());
  ASSERT_TRUE(d2.stop().is_ok());

  core::ThetaStore theta = drain_sampled_topic();
  EXPECT_EQ(theta.sampled_count(SubStreamId{1}), 5u);
  // 400 -> 20 (w=20) -> 5 (w=20*4=80); 5 * 80 = 400 exactly.
  EXPECT_NEAR(theta.estimated_original_count(SubStreamId{1}), 400.0, 1e-9);
}

// Live policy (§IV-B) applied at punctuation time: a publish between
// punctuations changes the fraction used for the NEXT flush, the
// forwarded wire records carry the epoch that sampled them, and Eq. 8
// keeps the count estimates exact across the swap.
TEST_F(SamplingProcessorTest, PolicyAppliesAtPunctuationTime) {
  core::SamplingPolicy initial;
  initial.budget.sampling_fraction = 0.5;
  auto plane = std::make_shared<core::ControlPlane>(initial);

  SamplingProcessor* processor_view = nullptr;
  TopologyBuilder builder;
  builder.add_source("src", "raw")
      .add_processor("samp",
                     [&]() {
                       core::NodeConfig config;
                       config.cost_function = "fraction";
                       config.budget.sampling_fraction = 0.5;
                       config.policy = core::PolicyHandle(
                           plane,
                           core::PolicyScope{
                               core::PolicyScope::Rule::kEndToEnd, 1});
                       auto processor =
                           std::make_unique<SamplingProcessor>(config);
                       processor_view = processor.get();
                       return processor;
                     },
                     {"src"})
      .add_sink("out", "sampled", {"samp"});
  auto topo = builder.build();
  ASSERT_TRUE(topo.is_ok());
  TopologyDriver driver(broker_, std::move(topo).value(), "test");
  ASSERT_TRUE(driver.start().is_ok());

  // Interval 1 under epoch 0 at fraction 0.5.
  core::ItemBundle first;
  first.items = n_items(SubStreamId{1}, 200, 1.0);
  publish_bundle(first, SimTime::from_millis(100));
  ASSERT_TRUE(driver.run_until_idle().is_ok());
  driver.advance_stream_time(SimTime::from_millis(1001));  // punctuate
  ASSERT_NE(processor_view, nullptr);
  EXPECT_EQ(processor_view->policy_epoch(), 0u);

  // The user's budget tightens: epoch 1 halves the fraction. Nothing is
  // restarted — the next punctuation simply resolves the new snapshot.
  plane->publish_fraction(0.25);

  // Interval 2 under epoch 1 at fraction 0.25.
  core::ItemBundle second;
  second.items = n_items(SubStreamId{1}, 400, 1.0);
  publish_bundle(second, SimTime::from_millis(1500));
  ASSERT_TRUE(driver.run_until_idle().is_ok());
  driver.advance_stream_time(SimTime::from_millis(2500));
  EXPECT_EQ(processor_view->policy_epoch(), 1u);
  ASSERT_TRUE(driver.stop().is_ok());

  // Wire records carry the epoch that sampled them, in flush order.
  std::vector<flowqueue::Record> records;
  auto topic = broker_.topic("sampled");
  ASSERT_TRUE(topic.is_ok());
  topic.value()->partition(0).read(0, 100000, records);
  ASSERT_EQ(records.size(), 2u);
  auto flush1 = core::decode_bundle(records[0].value);
  auto flush2 = core::decode_bundle(records[1].value);
  ASSERT_TRUE(flush1.is_ok());
  ASSERT_TRUE(flush2.is_ok());
  EXPECT_EQ(flush1.value().policy_epoch, 0u);
  EXPECT_EQ(flush2.value().policy_epoch, 1u);

  // Fractions actually applied: 0.5 × 200 = 100 kept, then 0.25 × the
  // EWMA-smoothed volume estimate (still 200) = 50 kept — and Eq. 8
  // reconstructs both originals exactly either way.
  EXPECT_EQ(flush1.value().items.size(), 100u);
  EXPECT_EQ(flush2.value().items.size(), 50u);
  const double w1 = flush1.value().w_in.get(SubStreamId{1});
  const double w2 = flush2.value().w_in.get(SubStreamId{1});
  EXPECT_NEAR(100.0 * w1, 200.0, 1e-9);
  EXPECT_NEAR(50.0 * w2, 400.0, 1e-9);
}

TEST_F(SamplingProcessorTest, DropsUndecodableRecords) {
  TopologyBuilder builder;
  builder.add_source("src", "raw")
      .add_processor("samp",
                     []() {
                       return std::make_unique<SamplingProcessor>(
                           fixed_node(10));
                     },
                     {"src"})
      .add_sink("out", "sampled", {"samp"});
  auto topo = builder.build();
  ASSERT_TRUE(topo.is_ok());
  TopologyDriver driver(broker_, std::move(topo).value(), "test");
  ASSERT_TRUE(driver.start().is_ok());

  flowqueue::Producer producer(broker_);
  ASSERT_TRUE(producer.send("raw", "junk", {0xde, 0xad}).is_ok());
  ASSERT_TRUE(driver.run_until_idle().is_ok());
  ASSERT_TRUE(driver.stop().is_ok());
  EXPECT_TRUE(drain_sampled_topic().empty());
}

TEST_F(SamplingProcessorTest, SrsProcessorForwardsImmediately) {
  TopologyBuilder builder;
  builder.add_source("src", "raw")
      .add_processor("srs",
                     []() {
                       return std::make_unique<SrsProcessor>(
                           core::SrsNodeConfig{NodeId{1}, 0.5, 11});
                     },
                     {"src"})
      .add_sink("out", "sampled", {"srs"});
  auto topo = builder.build();
  ASSERT_TRUE(topo.is_ok());
  TopologyDriver driver(broker_, std::move(topo).value(), "test");
  ASSERT_TRUE(driver.start().is_ok());

  core::ItemBundle bundle;
  bundle.items = n_items(SubStreamId{1}, 10000);
  publish_bundle(bundle, SimTime::from_millis(10));
  // No stop() needed: SRS forwards inline, without interval buffering.
  ASSERT_TRUE(driver.run_until_idle().is_ok());

  core::ThetaStore theta = drain_sampled_topic();
  EXPECT_GT(theta.sampled_count(SubStreamId{1}), 0u);
  EXPECT_NEAR(theta.estimated_original_count(SubStreamId{1}), 10000.0,
              10000.0 * 0.06);
}

}  // namespace
}  // namespace approxiot::streams
