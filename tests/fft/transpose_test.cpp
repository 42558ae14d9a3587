#include "cm5/fft/transpose.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "cm5/util/check.hpp"
#include "cm5/util/rng.hpp"
#include "cm5/util/time.hpp"

namespace cm5::fft {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;

struct TransposeCase {
  sched::ExchangeAlgorithm algorithm;
  std::int32_t nprocs;
  std::int32_t n;
  // gtest names each case after the bytes of this struct; a named zero
  // member keeps bytes 12-15 from printing whatever the padding held.
  std::int32_t zero = 0;
  std::int64_t elem_bytes;
};

class TransposeTest : public ::testing::TestWithParam<TransposeCase> {};

TEST_P(TransposeTest, MatchesSerialTranspose) {
  const auto& c = GetParam();
  // Fill the global matrix with distinct stamps per element.
  const auto total = static_cast<std::size_t>(c.n) *
                     static_cast<std::size_t>(c.n) *
                     static_cast<std::size_t>(c.elem_bytes);
  std::vector<std::byte> full(total);
  for (std::size_t i = 0; i < total; ++i) {
    full[i] = static_cast<std::byte>((i * 131 + 7) % 256);
  }
  auto element = [&](std::span<const std::byte> buffer, std::size_t row,
                     std::size_t col) {
    return buffer.subspan(
        (row * static_cast<std::size_t>(c.n) + col) *
            static_cast<std::size_t>(c.elem_bytes),
        static_cast<std::size_t>(c.elem_bytes));
  };

  const std::int32_t rows = c.n / c.nprocs;
  const std::size_t slab =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(c.n) *
      static_cast<std::size_t>(c.elem_bytes);
  std::vector<std::vector<std::byte>> result(
      static_cast<std::size_t>(c.nprocs));
  Cm5Machine machine(MachineParams::cm5_defaults(c.nprocs));
  machine.run([&](machine::Node& node) {
    const auto p = static_cast<std::size_t>(node.self());
    std::vector<std::byte> local(
        full.begin() + static_cast<std::ptrdiff_t>(p * slab),
        full.begin() + static_cast<std::ptrdiff_t>((p + 1) * slab));
    distributed_transpose(node, c.algorithm, c.n, c.elem_bytes, local);
    result[p] = std::move(local);
  });

  for (std::size_t gr = 0; gr < static_cast<std::size_t>(c.n); ++gr) {
    for (std::size_t gc = 0; gc < static_cast<std::size_t>(c.n); ++gc) {
      // Transposed element (gr, gc) lives on processor gr / rows,
      // local row gr % rows; it must equal original (gc, gr).
      const auto owner = gr / static_cast<std::size_t>(rows);
      const auto got = element(result[owner], gr % static_cast<std::size_t>(rows), gc);
      const auto want = element(full, gc, gr);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
          << "element (" << gr << ", " << gc << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransposeTest,
    ::testing::Values(
        TransposeCase{.algorithm = sched::ExchangeAlgorithm::Pairwise,
                      .nprocs = 4, .n = 16, .elem_bytes = 8},
        TransposeCase{.algorithm = sched::ExchangeAlgorithm::Balanced,
                      .nprocs = 8, .n = 32, .elem_bytes = 8},
        TransposeCase{.algorithm = sched::ExchangeAlgorithm::Recursive,
                      .nprocs = 8, .n = 16, .elem_bytes = 4},
        TransposeCase{.algorithm = sched::ExchangeAlgorithm::Linear,
                      .nprocs = 4, .n = 8, .elem_bytes = 16},
        TransposeCase{.algorithm = sched::ExchangeAlgorithm::Pairwise,
                      .nprocs = 16, .n = 32, .elem_bytes = 1}));

TEST(TransposeTest, DoubleTransposeIsIdentity) {
  const std::int32_t nprocs = 8, n = 32;
  const std::int32_t rows = n / nprocs;
  Cm5Machine machine(MachineParams::cm5_defaults(nprocs));
  machine.run([&](machine::Node& node) {
    std::vector<std::byte> local(
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(n) * 8);
    util::Rng rng = util::Rng::forked(4, static_cast<std::uint64_t>(node.self()));
    for (auto& b : local) b = static_cast<std::byte>(rng.next_below(256));
    const auto original = local;
    distributed_transpose(node, sched::ExchangeAlgorithm::Pairwise, n, 8, local);
    distributed_transpose(node, sched::ExchangeAlgorithm::Pairwise, n, 8, local);
    EXPECT_EQ(local, original);
  });
}

TEST(TransposeTest, TimedFormMatchesDataFormTiming) {
  // Phantom and data transposes must charge identical simulated time
  // (that is the point of phantom mode).
  const std::int32_t nprocs = 8, n = 64;
  const std::int32_t rows = n / nprocs;
  Cm5Machine machine(MachineParams::cm5_defaults(nprocs));
  const auto timed = machine.run([&](machine::Node& node) {
    distributed_transpose_timed(node, sched::ExchangeAlgorithm::Balanced, n, 8);
  });
  const auto data = machine.run([&](machine::Node& node) {
    std::vector<std::byte> local(
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(n) * 8,
        std::byte{1});
    distributed_transpose(node, sched::ExchangeAlgorithm::Balanced, n, 8, local);
  });
  EXPECT_EQ(timed.makespan, data.makespan);
}

TEST(TransposeTest, BadGeometryRejected) {
  Cm5Machine machine(MachineParams::cm5_defaults(8));
  EXPECT_THROW(machine.run([](machine::Node& node) {
                 distributed_transpose_timed(
                     node, sched::ExchangeAlgorithm::Pairwise, 12, 8);
               }),
               util::CheckError);
}

}  // namespace
}  // namespace cm5::fft
