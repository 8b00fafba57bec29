// Strong identifier and basic value types shared across all ApproxIoT
// modules. Every subsystem (flowqueue, runtime, netsim, core) refers to
// sub-streams, nodes and intervals through these types so that ids from
// different domains cannot be mixed up accidentally.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace approxiot {

/// Tag-dispatched strongly typed integer id. `Tag` is an empty struct that
/// makes e.g. SubStreamId and NodeId distinct, non-convertible types while
/// sharing the implementation.
template <typename Tag, typename Rep = std::uint64_t>
class StrongId {
 public:
  using rep_type = Rep;

  constexpr StrongId() noexcept = default;
  constexpr explicit StrongId(Rep value) noexcept : value_(value) {}

  [[nodiscard]] constexpr Rep value() const noexcept { return value_; }

  friend constexpr bool operator==(StrongId a, StrongId b) noexcept {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(StrongId a, StrongId b) noexcept {
    return a.value_ != b.value_;
  }
  friend constexpr bool operator<(StrongId a, StrongId b) noexcept {
    return a.value_ < b.value_;
  }
  friend constexpr bool operator<=(StrongId a, StrongId b) noexcept {
    return a.value_ <= b.value_;
  }
  friend constexpr bool operator>(StrongId a, StrongId b) noexcept {
    return a.value_ > b.value_;
  }
  friend constexpr bool operator>=(StrongId a, StrongId b) noexcept {
    return a.value_ >= b.value_;
  }

  friend std::ostream& operator<<(std::ostream& os, StrongId id) {
    return os << id.value_;
  }

 private:
  Rep value_{0};
};

struct SubStreamTag {};
struct NodeTag {};
struct TopicTag {};
struct ConsumerGroupTag {};
struct QueryTag {};
struct WorkerTag {};

/// Identifies a stratum (sub-stream): all items originating from the same
/// logical data source. Stratified sampling keys its reservoirs on this.
using SubStreamId = StrongId<SubStreamTag>;

/// Identifies a node in the logical edge tree (source, edge layer, root).
using NodeId = StrongId<NodeTag>;

/// Identifies a flowqueue topic.
using TopicId = StrongId<TopicTag>;

/// Identifies a flowqueue consumer group.
using ConsumerGroupId = StrongId<ConsumerGroupTag>;

/// Identifies a registered analytics query.
using QueryId = StrongId<QueryTag>;

/// Identifies a parallel sampling worker within a node (§III-E).
using WorkerId = StrongId<WorkerTag>;

/// A single data item flowing through the system. `value` is the numeric
/// payload the analytics queries aggregate over; `source` names the
/// sub-stream (stratum) it belongs to; `created_at_us` is the simulated
/// wall-clock creation time used for end-to-end latency accounting.
struct Item {
  SubStreamId source{};
  double value{0.0};
  std::int64_t created_at_us{0};

  friend bool operator==(const Item& a, const Item& b) noexcept {
    return a.source == b.source && a.value == b.value &&
           a.created_at_us == b.created_at_us;
  }
};

}  // namespace approxiot

namespace std {
template <typename Tag, typename Rep>
struct hash<approxiot::StrongId<Tag, Rep>> {
  size_t operator()(approxiot::StrongId<Tag, Rep> id) const noexcept {
    return std::hash<Rep>{}(id.value());
  }
};
}  // namespace std
