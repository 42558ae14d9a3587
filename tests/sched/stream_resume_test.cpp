#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/stream.hpp"
#include "cm5/sim/exec_backend.hpp"
#include "cm5/util/check.hpp"
#include "cm5/util/json.hpp"
#include "cm5/util/time.hpp"

/// The stream determinism contract, enforced end to end:
///
///   * a StreamReport is a pure function of (options, machine params) —
///     byte-identical across execution backends;
///   * a stream killed at *any* batch boundary resumes from its
///     checkpoint into a bit-identical final report (fuzzed across
///     seeds and batching policies);
///   * checkpoints round-trip through JSON, and resume refuses a
///     checkpoint from a different configuration or a diverged chain.

namespace cm5::sched {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;

/// A small faulty stream that still exercises every moving part: a
/// mid-stream death, burst loss reaching the stream layer, and enough
/// requests for several batches.
StreamOptions faulty_options(std::uint64_t seed, BatchPolicy policy) {
  StreamOptions options;
  options.workload.nodes = 8;
  options.workload.num_requests = 16;
  options.workload.seed = seed;
  options.workload.mean_gap = util::from_us(100);
  options.policy = policy;
  options.max_batch_requests = 3;
  options.fault_script.seed = seed ^ 0xfau;
  options.fault_script.burst.p_enter = 0.03;
  options.fault_script.burst.p_exit = 0.25;
  options.fault_script.burst.loss_bad = 0.7;
  options.fault_script.deaths.push_back({7, util::from_us(400)});
  options.resilient.max_attempts = 3;
  return options;
}

std::string full_dump(const StreamReport& report) {
  return report.to_json(true).dump();
}

TEST(StreamDeterminism, ByteIdenticalAcrossBackends) {
  const StreamOptions options = faulty_options(21, BatchPolicy::kTenantFair);

  Cm5Machine fibers(MachineParams::cm5_defaults(8));
  fibers.set_execution_model(sim::ExecutionModel::kFibers);
  Cm5Machine threads(MachineParams::cm5_defaults(8));
  threads.set_execution_model(sim::ExecutionModel::kThreads);
  EXPECT_EQ(full_dump(run_stream(threads, options)),
            full_dump(run_stream(fibers, options)))
      << "thread-oracle stream report diverged from fibers";
}

TEST(StreamResume, KillAtEveryBatchBoundaryResumesBitIdentical) {
  StreamOptions options = faulty_options(31, BatchPolicy::kFifo);

  Cm5Machine m0(MachineParams::cm5_defaults(8));
  std::vector<StreamCheckpoint> checkpoints;
  options.checkpoint_sink = [&](const StreamCheckpoint& cp) {
    checkpoints.push_back(cp);
  };
  const StreamReport baseline = run_stream(m0, options);
  const std::string want = full_dump(baseline);
  options.checkpoint_sink = nullptr;
  ASSERT_EQ(static_cast<std::int64_t>(checkpoints.size()), baseline.batches);
  ASSERT_GE(baseline.batches, 3) << "scenario too small to kill mid-stream";
  // Pinned digest format: a checkpoint written by an earlier build must
  // still resume, so these values change only with a format change.
  const util::json::Value last = checkpoints.back().to_json();
  EXPECT_EQ(last.at("config_digest").as_string(), "0c6dba099601fecf");
  EXPECT_EQ(last.at("batch_digests").dump(),
            R"(["f5652bad17b5787c","7e5902a0c9bc4d84","8e723bbb5a403b64",)"
            R"("56a5c01f655c2e82","82745e03b30ad16f","19e56a190e303b69"])");

  for (std::int64_t boundary = 1; boundary <= baseline.batches; ++boundary) {
    // Kill: run only `boundary` batches, taking the checkpoint there.
    StreamOptions killed = options;
    killed.stop_after_batch = boundary;
    StreamCheckpoint token;
    killed.checkpoint_sink = [&](const StreamCheckpoint& cp) { token = cp; };
    Cm5Machine mk(MachineParams::cm5_defaults(8));
    const StreamReport partial = run_stream(mk, killed);
    EXPECT_EQ(partial.batches, boundary);
    EXPECT_EQ(token.batches_completed, boundary);

    // The kill-time checkpoint equals the uninterrupted run's at the
    // same boundary (same digests, clock, queue).
    const StreamCheckpoint& reference =
        checkpoints[static_cast<std::size_t>(boundary - 1)];
    EXPECT_EQ(token.to_json().dump(), reference.to_json().dump());

    // Resume through a JSON round trip (as a tool reading a checkpoint
    // file would) and finish: final report must be bit-identical.
    StreamOptions resumed = options;
    resumed.resume_from = std::make_shared<StreamCheckpoint>(
        StreamCheckpoint::from_json(token.to_json()));
    Cm5Machine mr(MachineParams::cm5_defaults(8));
    EXPECT_EQ(full_dump(run_stream(mr, resumed)), want)
        << "resume diverged after kill at boundary " << boundary;
  }
}

TEST(StreamResume, FuzzedSeedsAndPoliciesResumeBitIdentical) {
  for (const BatchPolicy policy :
       {BatchPolicy::kFifo, BatchPolicy::kTenantFair}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      StreamOptions options = faulty_options(seed * 97 + 5, policy);

      Cm5Machine m0(MachineParams::cm5_defaults(8));
      const StreamReport baseline = run_stream(m0, options);
      const std::string want = full_dump(baseline);
      if (baseline.batches < 2) continue;  // nothing mid-stream to kill
      const std::int64_t boundary = baseline.batches / 2;

      StreamOptions killed = options;
      killed.stop_after_batch = boundary;
      StreamCheckpoint token;
      killed.checkpoint_sink = [&](const StreamCheckpoint& cp) {
        token = cp;
      };
      Cm5Machine mk(MachineParams::cm5_defaults(8));
      (void)run_stream(mk, killed);

      StreamOptions resumed = options;
      resumed.resume_from = std::make_shared<StreamCheckpoint>(token);
      Cm5Machine mr(MachineParams::cm5_defaults(8));
      EXPECT_EQ(full_dump(run_stream(mr, resumed)), want)
          << "policy " << batch_policy_name(policy) << " seed "
          << seed * 97 + 5 << " diverged";
    }
  }
}

TEST(StreamResume, RejectsCheckpointFromDifferentConfiguration) {
  StreamOptions options = faulty_options(41, BatchPolicy::kFifo);
  StreamCheckpoint token;
  {
    StreamOptions killed = options;
    killed.stop_after_batch = 1;
    killed.checkpoint_sink = [&](const StreamCheckpoint& cp) { token = cp; };
    Cm5Machine m(MachineParams::cm5_defaults(8));
    (void)run_stream(m, killed);
  }
  StreamOptions other = options;
  other.workload.seed ^= 1;  // different stream
  other.resume_from = std::make_shared<StreamCheckpoint>(token);
  Cm5Machine m(MachineParams::cm5_defaults(8));
  EXPECT_THROW(run_stream(m, other), util::CheckError);
}

TEST(StreamResume, RejectsTamperedDigestChain) {
  StreamOptions options = faulty_options(43, BatchPolicy::kFifo);
  StreamCheckpoint token;
  {
    StreamOptions killed = options;
    killed.stop_after_batch = 2;
    killed.checkpoint_sink = [&](const StreamCheckpoint& cp) { token = cp; };
    Cm5Machine m(MachineParams::cm5_defaults(8));
    (void)run_stream(m, killed);
  }
  ASSERT_GE(token.batch_digests.size(), 2u);
  token.batch_digests[1] ^= 0xdeadbeefULL;
  StreamOptions resumed = options;
  resumed.resume_from = std::make_shared<StreamCheckpoint>(token);
  Cm5Machine m(MachineParams::cm5_defaults(8));
  EXPECT_THROW(run_stream(m, resumed), util::CheckError);
}

TEST(StreamCheckpointJson, RoundTripAndMalformedRejection) {
  StreamCheckpoint cp;
  cp.config_digest = 0xabcdef0123456789ULL;
  cp.batches_completed = 2;
  cp.stream_clock = 123456;
  cp.requests_generated = 17;
  cp.queue_ids = {4, 9, 11};
  cp.excised_nodes = {3};
  cp.batch_digests = {0x1111, 0x2222};
  const StreamCheckpoint back = StreamCheckpoint::from_json(cp.to_json());
  EXPECT_EQ(back.to_json().dump(), cp.to_json().dump());

  util::json::Value broken = cp.to_json();
  broken["batches_completed"] = std::int64_t{5};  // chain length mismatch
  EXPECT_THROW(StreamCheckpoint::from_json(broken), std::runtime_error);
  EXPECT_THROW(StreamCheckpoint::from_json(util::json::Value::object()),
               std::runtime_error);
}

}  // namespace
}  // namespace cm5::sched
