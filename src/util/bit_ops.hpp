/// \file bit_ops.hpp
/// \brief Small bit-manipulation helpers shared across kernels.
///
/// The broadword primitives below (popcount64, for_each_set_bit) serve the
/// dense bitmap, which packs 64 Boolean entries per machine word, instead of
/// ad-hoc per-call loops.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>

#if defined(_MSC_VER) && !defined(__clang__)
#include <intrin.h>
#endif

namespace spbla::util {

/// Round \p x up to the next power of two. next_pow2(0) == 1.
[[nodiscard]] constexpr std::uint32_t next_pow2(std::uint32_t x) noexcept {
    return x <= 1 ? 1u : std::bit_ceil(x);
}

/// Round \p x up to the next power of two (64-bit).
[[nodiscard]] constexpr std::uint64_t next_pow2(std::uint64_t x) noexcept {
    return x <= 1 ? 1u : std::bit_ceil(x);
}

/// Integer ceiling division; \p b must be non-zero.
[[nodiscard]] constexpr std::size_t ceil_div(std::size_t a, std::size_t b) noexcept {
    return (a + b - 1) / b;
}

/// True iff \p x is a power of two (and non-zero).
[[nodiscard]] constexpr bool is_pow2(std::uint64_t x) noexcept {
    return x != 0 && (x & (x - 1)) == 0;
}

/// Population count of one 64-bit word. Compiles to a single popcnt on every
/// mainstream toolchain: __builtin_popcountll on GCC/Clang, __popcnt64 on
/// MSVC x64, std::popcount otherwise.
[[nodiscard]] inline int popcount64(std::uint64_t x) noexcept {
#if defined(_MSC_VER) && !defined(__clang__)
#if defined(_M_X64) || defined(_M_ARM64)
    return static_cast<int>(__popcnt64(x));
#else
    return std::popcount(x);
#endif
#elif defined(__GNUC__) || defined(__clang__)
    return __builtin_popcountll(x);
#else
    return std::popcount(x);
#endif
}

/// Index of the lowest set bit; \p x must be non-zero.
[[nodiscard]] inline int lowest_set_bit(std::uint64_t x) noexcept {
    return std::countr_zero(x);
}

/// Invoke \p fn(bit_index) for every set bit of \p word, lowest first.
/// The canonical "iterate the 64 packed columns of one word" loop — kernels
/// use this instead of re-rolling the countr_zero / clear-lowest idiom.
template <class Fn>
inline void for_each_set_bit(std::uint64_t word, Fn&& fn) {
    while (word != 0) {
        fn(static_cast<unsigned>(std::countr_zero(word)));
        word &= word - 1;
    }
}

}  // namespace spbla::util
