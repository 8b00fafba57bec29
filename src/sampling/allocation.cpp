#include "sampling/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace approxiot::sampling {

namespace {

/// Work arrays of one sizing call. Thread-local and reused, so steady-state
/// sizing allocates nothing however many strata an interval carries.
struct SplitScratch {
  std::vector<double> scores;
  std::vector<double> fractional;
  std::vector<std::size_t> order;
};

SplitScratch& split_scratch() {
  thread_local SplitScratch scratch;
  return scratch;
}

/// Shares out `total_budget` proportionally to `scores` (largest-remainder
/// method), guaranteeing one slot per stream when the budget allows.
void proportional_split(std::size_t total_budget,
                        const std::vector<SubStreamInfo>& streams,
                        const std::vector<double>& scores,
                        std::vector<std::size_t>& sizes) {
  const std::size_t k = streams.size();
  sizes.resize(k);
  if (k == 0) return;

  SplitScratch& scratch = split_scratch();
  std::vector<std::size_t>& order = scratch.order;
  order.resize(k);
  for (std::size_t i = 0; i < k; ++i) order[i] = i;

  if (total_budget <= k) {
    // Degenerate budget: give everything one slot until it runs out,
    // lowest ids first (deterministic).
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return streams[a].id < streams[b].id;
    });
    for (std::size_t i = 0; i < k; ++i) {
      sizes[order[i]] = i < total_budget ? 1 : 0;
    }
    return;
  }

  double score_sum = 0.0;
  for (double s : scores) score_sum += s;

  // Reserve one guaranteed slot per stream, then split the rest by score.
  const std::size_t spare = total_budget - k;
  std::vector<double>& fractional = scratch.fractional;
  fractional.resize(k);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double share =
        score_sum > 0.0
            ? static_cast<double>(spare) * (scores[i] / score_sum)
            : static_cast<double>(spare) / static_cast<double>(k);
    const auto whole = static_cast<std::size_t>(share);
    sizes[i] = 1 + whole;
    fractional[i] = share - static_cast<double>(whole);
    assigned += 1 + whole;
  }

  // Deal leftover slots to the largest fractional remainders.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (fractional[a] != fractional[b]) return fractional[a] > fractional[b];
    return streams[a].id < streams[b].id;
  });
  for (std::size_t i = 0; assigned < total_budget && i < k; ++i, ++assigned) {
    ++sizes[order[i]];
  }
}

}  // namespace

void EqualAllocation::allocate(std::size_t total_budget,
                               const std::vector<SubStreamInfo>& streams,
                               std::vector<std::size_t>& sizes) const {
  std::vector<double>& scores = split_scratch().scores;
  scores.assign(streams.size(), 1.0);
  proportional_split(total_budget, streams, scores, sizes);
}

void ProportionalAllocation::allocate(
    std::size_t total_budget, const std::vector<SubStreamInfo>& streams,
    std::vector<std::size_t>& sizes) const {
  std::vector<double>& scores = split_scratch().scores;
  scores.clear();
  for (const auto& s : streams) {
    scores.push_back(static_cast<double>(s.count));
  }
  proportional_split(total_budget, streams, scores, sizes);
}

void NeymanAllocation::allocate(std::size_t total_budget,
                                const std::vector<SubStreamInfo>& streams,
                                std::vector<std::size_t>& sizes) const {
  std::vector<double>& scores = split_scratch().scores;
  scores.clear();
  for (const auto& s : streams) {
    scores.push_back(static_cast<double>(s.count) *
                     std::max(s.value_stddev, 1e-12));
  }
  proportional_split(total_budget, streams, scores, sizes);
}

std::unique_ptr<AllocationPolicy> make_allocation_policy(
    const std::string& name) {
  if (name == "equal") return std::make_unique<EqualAllocation>();
  if (name == "proportional") return std::make_unique<ProportionalAllocation>();
  if (name == "neyman") return std::make_unique<NeymanAllocation>();
  throw std::invalid_argument("unknown allocation policy '" + name + "'");
}

}  // namespace approxiot::sampling
