#include "dft_reference.hpp"

#include <cmath>
#include <numbers>

namespace cm5::fft {

std::vector<Complex> dft_reference(std::span<const Complex> data,
                                   bool inverse) {
  const std::size_t n = data.size();
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex sum(0.0, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = sign * 2.0 * std::numbers::pi *
                           static_cast<double>(k * t % n) /
                           static_cast<double>(n);
      sum += data[t] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = inverse ? sum / static_cast<double>(n) : sum;
  }
  return out;
}

}  // namespace cm5::fft
