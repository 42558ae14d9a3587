#pragma once

#include <cstddef>

/// \file sanitizer.hpp
/// Which sanitizer this translation unit is built under, decided once:
/// CM5_ASAN and CM5_TSAN are 1 under AddressSanitizer and
/// ThreadSanitizer, 0 otherwise. GCC defines __SANITIZE_*__; Clang
/// answers __has_feature.

#if defined(__SANITIZE_ADDRESS__)
#define CM5_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define CM5_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(CM5_ASAN)
#define CM5_ASAN 1
#endif
#if __has_feature(thread_sanitizer) && !defined(CM5_TSAN)
#define CM5_TSAN 1
#endif
#endif
#ifndef CM5_ASAN
#define CM5_ASAN 0
#endif
#ifndef CM5_TSAN
#define CM5_TSAN 0
#endif

namespace cm5::sim {

/// Usable size of every fiber stack: 256 KiB, or 1 MiB under
/// AddressSanitizer, whose redzones inflate frames. The OS commits a
/// stack lazily, so large partitions reserve address space, not memory.
inline constexpr std::size_t kFiberStackBytes =
    CM5_ASAN ? (std::size_t{1} << 20) : (std::size_t{256} << 10);

}  // namespace cm5::sim
