#include "cm5/util/rng.hpp"

#include "cm5/util/check.hpp"

namespace cm5::util {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire 2019: uniform in [0, bound) without modulo bias.
  if (bound == 0) return 0;
  while (true) {
    const std::uint64_t x = next_u64();
    __extension__ typedef unsigned __int128 U128;  // GCC/Clang extension
    const U128 m = static_cast<U128>(x) * static_cast<U128>(bound);
    const std::uint64_t low = static_cast<std::uint64_t>(m);
    if (low >= bound || low >= (0 - bound) % bound) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() noexcept {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

Rng Rng::forked(std::uint64_t seed, std::uint64_t key) noexcept {
  SplitMix64 sm(seed);
  const std::uint64_t base = sm.next();
  SplitMix64 mix(base ^ (key * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL));
  return Rng(mix.next());
}

}  // namespace cm5::util
