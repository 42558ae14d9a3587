#pragma once

#include <span>
#include <vector>

#include "cm5/fft/fft1d.hpp"

/// \file dft_reference.hpp
/// The O(N^2) discrete Fourier transform. Test support: the FFT tests
/// check fft_inplace and the 2-D transforms against it.

namespace cm5::fft {

/// Direct DFT of `data`; `inverse` applies the conjugate transform and
/// the 1/N scaling, like fft_inplace.
std::vector<Complex> dft_reference(std::span<const Complex> data,
                                   bool inverse = false);

}  // namespace cm5::fft
