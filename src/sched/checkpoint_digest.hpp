#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "cm5/sched/resilient_executor.hpp"
#include "cm5/util/json.hpp"

/// \file checkpoint_digest.hpp
/// The checkpoint digest format, and the protocol constants it hashes,
/// shared by resilient_executor.cpp and stream.cpp (private to
/// src/sched). A checkpoint from an earlier build resumes only while
/// every value hashed here, and its order, stays the same. Each executor
/// keeps its own chain policy on top of it.

namespace cm5::sched {

/// The resilient protocol's fixed constants. Config digests hash them
/// where the matching ResilientOptions fields once sat, so checkpoints
/// from earlier builds still resume.
inline constexpr double kTimeoutFactor = 4.0;  ///< fixed window / estimate
inline constexpr util::SimDuration kMinTimeout = util::from_us(200);
/// Adaptive floor / estimate. Waits can exceed the analytic estimate
/// (greedy schedules serialize receives it does not model): keep 2x.
inline constexpr double kRtoFloorFactor = 2.0;
inline constexpr std::int32_t kDataTagBase = 1000;    ///< + step = data tag
inline constexpr std::int32_t kAckTagBase = 1 << 30;  ///< + step = ack tag
static_assert(kRtoFloorFactor > 0.0, "rto floor must be positive");
static_assert(kDataTagBase < kAckTagBase, "data tags must stay below acks");

namespace digest {

/// 64-bit FNV-1a over 64-bit words, fed one little-endian byte at a time.
class Fnv {
 public:
  void mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffULL;
      h_ *= 0x00000100000001b3ULL;
    }
  }
  void mix_double(double d) noexcept {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }
  /// Length, then one word per byte.
  void mix_string(const std::string& s) noexcept {
    mix(s.size());
    for (const char c : s) {
      mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The protocol options as both config digests hash them.
inline void mix_resilient_options(Fnv& h, const ResilientOptions& r) {
  h.mix(static_cast<std::uint64_t>(r.max_attempts));
  h.mix_double(kTimeoutFactor);
  h.mix(static_cast<std::uint64_t>(kMinTimeout));
  h.mix(static_cast<std::uint64_t>(r.timeout_policy));
  h.mix_double(kRtoFloorFactor);
  h.mix(static_cast<std::uint64_t>(r.backoff_base));
  h.mix(static_cast<std::uint64_t>(r.backoff_max));
  h.mix_double(r.backoff_jitter);
  h.mix(static_cast<std::uint64_t>(r.suspicion_rounds));
  h.mix(static_cast<std::uint64_t>(kDataTagBase));
  h.mix(static_cast<std::uint64_t>(kAckTagBase));
}

/// Digests are full 64-bit values and JSON ints are signed, so a
/// checkpoint stores them as 16 hex digits.
inline std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}
inline util::json::Value hex_array(const std::vector<std::uint64_t>& digests) {
  util::json::Value out = util::json::Value::array();
  for (const std::uint64_t d : digests) out.push_back(hex(d));
  return out;
}

inline std::uint64_t parse_hex(const util::json::Value& v) {
  return static_cast<std::uint64_t>(std::stoull(v.as_string(), nullptr, 16));
}
inline std::vector<std::uint64_t> parse_hex_array(const util::json::Value& v) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < v.size(); ++i) out.push_back(parse_hex(v.at(i)));
  return out;
}

/// Node, id and key lists, as JSON integer arrays.
template <typename Int>
util::json::Value int_array(const std::vector<Int>& xs) {
  util::json::Value out = util::json::Value::array();
  for (const Int x : xs) out.push_back(static_cast<std::int64_t>(x));
  return out;
}
template <typename Int>
std::vector<Int> parse_int_array(const util::json::Value& v) {
  std::vector<Int> out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    out.push_back(static_cast<Int>(v.at(i).as_int()));
  }
  return out;
}

/// Runs `parse`, which fills a checkpoint and returns whether its fields
/// agree with each other, and reports every failure (missing keys, type
/// mismatches, bad hex, contradictions) as the documented
/// std::runtime_error, prefixed with `malformed`.
template <typename Parse>
void parse_checkpoint(const char* malformed, Parse&& parse) {
  bool consistent = false;
  try {
    consistent = parse();
  } catch (const std::runtime_error&) {
    throw;
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(malformed) + ": " + e.what());
  }
  if (!consistent) throw std::runtime_error(malformed);
}

}  // namespace digest
}  // namespace cm5::sched
