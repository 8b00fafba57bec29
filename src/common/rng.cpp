#include "common/rng.hpp"

#include <array>
#include <cmath>
#include <cstddef>

namespace approxiot {

namespace {

using Words = std::array<std::uint64_t, 4>;

/// The reference jump: Blackman & Vigna's 2^128-step jump polynomial,
/// evaluated by walking 256 state transitions (Rng::next() without the
/// output), on scalars so the compile-time evaluation below stays cheap.
constexpr Words jump_walk(const Words& start) noexcept {
  constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::uint64_t s0 = start[0];
  std::uint64_t s1 = start[1];
  std::uint64_t s2 = start[2];
  std::uint64_t s3 = start[3];
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint64_t a2 = 0;
  std::uint64_t a3 = 0;
  for (const std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        a0 ^= s0;
        a1 ^= s1;
        a2 ^= s2;
        a3 ^= s3;
      }
      const std::uint64_t t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = (s3 << 45) | (s3 >> 19);
    }
  }
  return Words{a0, a1, a2, a3};
}

/// The jump is linear over GF(2), so J(s) is the XOR of J applied to each
/// 4-bit slice of s. Row r covers bits 4*(r%16) .. 4*(r%16)+3 of state
/// word r/16; its entry v is J of the state holding nibble value v there
/// and zeros elsewhere. 64 rows x 16 entries x 32 bytes = 32 KiB, filled
/// by the walk above at compile time (constant-initialised .rodata: no
/// runtime init, no static guard).
using JumpTable = std::array<std::array<Words, 16>, 64>;

constexpr JumpTable make_jump_table() noexcept {
  JumpTable table{};
  for (std::size_t row = 0; row < 64; ++row) {
    Words basis[4]{};
    for (std::size_t b = 0; b < 4; ++b) {
      Words unit{};
      unit[row / 16] = 1ULL << ((row % 16) * 4 + b);
      basis[b] = jump_walk(unit);
    }
    for (std::size_t v = 0; v < 16; ++v) {
      for (std::size_t b = 0; b < 4; ++b) {
        if ((v >> b) & 1) {
          for (std::size_t i = 0; i < 4; ++i) table[row][v][i] ^= basis[b][i];
        }
      }
    }
  }
  return table;
}

constexpr JumpTable kJumpTable = make_jump_table();

}  // namespace

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    std::uint64_t t = -bound % bound;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u, v, s;
  do {
    u = 2.0 * next_double() - 1.0;
    v = 2.0 * next_double() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * mul;
  has_cached_gaussian_ = true;
  return u * mul;
}

double Rng::next_exponential(double lambda) noexcept {
  // Inverse transform; guard against log(0).
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

std::uint64_t Rng::next_poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth: multiply uniforms until the product drops below e^-mean.
    const double limit = std::exp(-mean);
    double product = next_double();
    std::uint64_t count = 0;
    while (product > limit) {
      product *= next_double();
      ++count;
    }
    return count;
  }
  // Normal approximation with continuity correction; adequate for the
  // workload generators where mean is large (1e3..1e7).
  const double sample = mean + std::sqrt(mean) * next_gaussian() + 0.5;
  if (sample < 0.0) return 0;
  return static_cast<std::uint64_t>(sample);
}

void Rng::jump() noexcept {
  // J(s) = XOR over the 64 nibbles of s of J(nibble in place): one
  // table row per nibble position, one 4-word entry per nibble value.
  Words acc{};
  for (std::size_t word = 0; word < 4; ++word) {
    std::uint64_t bits = state_[word];
    for (std::size_t nibble = 0; nibble < 16; ++nibble, bits >>= 4) {
      const Words& entry = kJumpTable[word * 16 + nibble][bits & 0xF];
      for (std::size_t i = 0; i < 4; ++i) acc[i] ^= entry[i];
    }
  }
  state_ = acc;
  has_cached_gaussian_ = false;
}

}  // namespace approxiot
