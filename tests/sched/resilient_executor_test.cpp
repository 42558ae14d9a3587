#include "cm5/sched/resilient_executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "cm5/machine/machine.hpp"
#include "cm5/machine/params.hpp"
#include "cm5/patterns/synthetic.hpp"
#include "cm5/sched/builders.hpp"
#include "cm5/sched/pattern.hpp"
#include "cm5/sim/fault.hpp"
#include "cm5/util/check.hpp"
#include "cm5/util/json.hpp"
#include "cm5/util/time.hpp"

namespace cm5::sched {
namespace {

using util::from_us;

machine::Cm5Machine make_machine(std::int32_t n) {
  return machine::Cm5Machine(machine::MachineParams::cm5_defaults(n));
}

CommSchedule balanced_exchange_schedule(std::int32_t n, std::int64_t bytes) {
  return build_schedule(Scheduler::Balanced,
                        CommPattern::complete_exchange(n, bytes));
}

TEST(ResilientExecutorTest, FaultFreeRunDeliversEverythingWithoutRetries) {
  auto machine = make_machine(8);
  const CommSchedule schedule = balanced_exchange_schedule(8, 512);
  const ResilientRunReport report =
      run_resilient_schedule(machine, schedule);

  EXPECT_EQ(report.edges_total, 8 * 7);
  EXPECT_EQ(report.edges_delivered, report.edges_total);
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(report.recv_timeouts, 0);
  EXPECT_EQ(report.corrupt_detected, 0);
  EXPECT_EQ(report.repairs, 0);
  EXPECT_TRUE(report.dead_nodes.empty());
  EXPECT_TRUE(report.lost_edges.empty());
  EXPECT_EQ(report.fault_free_makespan, report.makespan);
}

TEST(ResilientExecutorTest, DropsAreRetriedToFullDeliveryForAllSchedulers) {
  // 2% probabilistic drop: every scheduler's schedule must still deliver
  // 100% of its edges, necessarily with retries.
  for (const Scheduler s : {Scheduler::Linear, Scheduler::Pairwise,
                            Scheduler::Balanced, Scheduler::Greedy}) {
    auto machine = make_machine(8);
    sim::FaultPlan plan;
    plan.seed = 99;
    plan.drop_prob = 0.02;
    machine.set_fault_plan(plan);

    const CommSchedule schedule =
        build_schedule(s, CommPattern::complete_exchange(8, 512));
    ResilientOptions options;
    options.measure_fault_free_baseline = false;
    const ResilientRunReport report =
        run_resilient_schedule(machine, schedule, options);

    EXPECT_EQ(report.edges_delivered, report.edges_total)
        << "scheduler " << static_cast<int>(s) << ":\n"
        << report.to_string();
    EXPECT_GT(report.retries, 0) << "scheduler " << static_cast<int>(s);
    EXPECT_TRUE(report.lost_edges.empty());
    EXPECT_TRUE(report.dead_nodes.empty());
  }
}

TEST(ResilientExecutorTest, CorruptionIsDetectedAndResent) {
  auto machine = make_machine(8);
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.corrupt_prob = 0.05;
  machine.set_fault_plan(plan);

  const CommSchedule schedule = balanced_exchange_schedule(8, 512);
  ResilientOptions options;
  options.measure_fault_free_baseline = false;
  const ResilientRunReport report =
      run_resilient_schedule(machine, schedule, options);

  EXPECT_EQ(report.edges_delivered, report.edges_total)
      << report.to_string();
  EXPECT_GT(report.corrupt_detected, 0);
  EXPECT_GT(report.retries, 0);  // each corrupt copy forces a resend
}

TEST(ResilientExecutorTest, FailStopIsRepairedAndLostEdgesAreExact) {
  const std::int32_t n = 8;
  const NodeId dead = 5;
  auto machine = make_machine(n);
  sim::FaultPlan plan;
  plan.deaths.push_back({dead, 0});  // dead before the schedule starts
  machine.set_fault_plan(plan);

  const CommSchedule schedule = balanced_exchange_schedule(n, 512);
  const ResilientRunReport report =
      run_resilient_schedule(machine, schedule);

  ASSERT_EQ(report.dead_nodes.size(), 1u) << report.to_string();
  EXPECT_EQ(report.dead_nodes[0], dead);
  EXPECT_GE(report.repairs, 1);

  // Exactly the edges touching the dead node are lost...
  std::vector<LostEdge> expected;
  for (std::int32_t step = 0; step < schedule.num_steps(); ++step) {
    for (NodeId p = 0; p < n; ++p) {
      for (const Op& op : schedule.ops(step, p)) {
        if (op.kind == Op::Kind::Recv) continue;
        if (p == dead || op.peer == dead) {
          expected.push_back(LostEdge{step, p, op.peer, op.send_bytes});
        }
      }
    }
  }
  std::sort(expected.begin(), expected.end(),
            [](const LostEdge& a, const LostEdge& b) {
              return std::tie(a.step, a.src, a.dst) <
                     std::tie(b.step, b.src, b.dst);
            });
  ASSERT_EQ(report.lost_edges.size(), expected.size()) << report.to_string();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(report.lost_edges[i].step, expected[i].step);
    EXPECT_EQ(report.lost_edges[i].src, expected[i].src);
    EXPECT_EQ(report.lost_edges[i].dst, expected[i].dst);
    EXPECT_EQ(report.lost_edges[i].bytes, expected[i].bytes);
  }
  // ...and everything else was delivered by the repaired schedule.
  EXPECT_EQ(report.edges_delivered,
            report.edges_total -
                static_cast<std::int64_t>(expected.size()));
}

TEST(ResilientExecutorTest, MidScheduleDeathStillTerminatesAndReportsHonestly) {
  // Kill a node midway: edges confirmed before the death stay delivered,
  // the rest of its edges are reported lost, and every survivor finishes.
  const std::int32_t n = 8;
  auto machine = make_machine(n);
  sim::FaultPlan plan;
  plan.deaths.push_back({2, util::from_us(1000)});
  machine.set_fault_plan(plan);

  const CommSchedule schedule = balanced_exchange_schedule(n, 512);
  const ResilientRunReport report =
      run_resilient_schedule(machine, schedule);

  ASSERT_EQ(report.dead_nodes.size(), 1u) << report.to_string();
  EXPECT_EQ(report.dead_nodes[0], 2);
  EXPECT_GE(report.repairs, 1);
  // Every lost edge touches the dead node.
  for (const LostEdge& e : report.lost_edges) {
    EXPECT_TRUE(e.src == 2 || e.dst == 2)
        << "edge " << e.src << "->" << e.dst << " lost without a dead endpoint";
  }
  EXPECT_EQ(report.edges_delivered + static_cast<std::int64_t>(
                                         report.lost_edges.size()),
            report.edges_total);
}

// ---------------------------------------------------------------------------
// Agreement mask edges: one byte with padding bits (n = 2), and a dead
// node in the top bit of the last byte (n = 64)
// ---------------------------------------------------------------------------

struct AgreementPin {
  std::int32_t n;
  NodeId dead;
  std::int32_t repairs;
  // gtest names each case after the bytes of this struct; a named zero
  // member keeps bytes 12-15 from printing whatever the padding held.
  std::int32_t zero = 0;
  std::size_t lost;
  std::uint64_t lost_hash;
};

// Order-sensitive FNV-1a over the (step, src, dst, bytes) of every lost
// edge, so a pinned value catches any change in the set or its order.
std::uint64_t lost_edge_hash(const std::vector<LostEdge>& lost) {
  std::uint64_t h = 14695981039346656037ull;
  for (const LostEdge& e : lost) {
    for (const std::int64_t v :
         {std::int64_t{e.step}, std::int64_t{e.src}, std::int64_t{e.dst},
          e.bytes}) {
      h = (h ^ static_cast<std::uint64_t>(v)) * 1099511628211ull;
    }
  }
  return h;
}

class AgreementMaskTest : public ::testing::TestWithParam<AgreementPin> {};

TEST_P(AgreementMaskTest, StepZeroDeathMatchesPinnedRepair) {
  const AgreementPin pin = GetParam();
  auto machine = make_machine(pin.n);
  sim::FaultPlan plan;
  plan.deaths.push_back({pin.dead, 0});
  machine.set_fault_plan(plan);
  ResilientOptions opts;
  opts.suspicion_rounds = 2;

  // A 2-node balanced exchange is a single step, one agreement round
  // short of excising anyone at suspicion_rounds = 2; four exchange
  // steps give the rounds to do it.
  CommSchedule schedule = balanced_exchange_schedule(pin.n, 512);
  if (pin.n == 2) {
    schedule = CommSchedule(2);
    for (int i = 0; i < 4; ++i) {
      schedule.add_exchange(schedule.add_step(), 0, 1, 512, 512);
    }
  }
  const ResilientRunReport report =
      run_resilient_schedule(machine, schedule, opts);

  ASSERT_EQ(report.dead_nodes, std::vector<NodeId>{pin.dead})
      << report.to_string();
  EXPECT_EQ(report.repairs, pin.repairs);
  ASSERT_EQ(report.lost_edges.size(), pin.lost);
  EXPECT_EQ(lost_edge_hash(report.lost_edges), pin.lost_hash);
  for (const LostEdge& e : report.lost_edges) {
    EXPECT_TRUE(e.src == pin.dead || e.dst == pin.dead);
  }
  EXPECT_EQ(report.edges_delivered +
                static_cast<std::int64_t>(report.lost_edges.size()),
            report.edges_total);
}

INSTANTIATE_TEST_SUITE_P(
    MaskWidths, AgreementMaskTest,
    ::testing::Values(
        AgreementPin{.n = 2,
                     .dead = 1,
                     .repairs = 1,
                     .lost = 8,
                     .lost_hash = 1191010339699762285ull},
        AgreementPin{.n = 64,
                     .dead = 63,
                     .repairs = 1,
                     .lost = 126,
                     .lost_hash = 14526838533389243925ull}),
    [](const ::testing::TestParamInfo<AgreementPin>& param) {
      return "n" + std::to_string(param.param.n);
    });

TEST(ResilientExecutorTest, IrregularPatternSurvivesDropsAndDelays) {
  auto machine = make_machine(16);
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.drop_prob = 0.01;
  plan.delay_prob = 0.1;
  plan.delay = from_us(100);
  machine.set_fault_plan(plan);

  const CommPattern pattern = patterns::random_density(16, 0.4, 512, 11);
  const CommSchedule schedule = build_schedule(Scheduler::Greedy, pattern);
  ResilientOptions options;
  options.measure_fault_free_baseline = false;
  const ResilientRunReport report =
      run_resilient_schedule(machine, schedule, options);

  EXPECT_EQ(report.edges_total, pattern.num_messages());
  EXPECT_EQ(report.edges_delivered, report.edges_total)
      << report.to_string();
}

TEST(ResilientExecutorTest, FaultyRunsAreDeterministic) {
  auto run_once = [] {
    auto machine = make_machine(8);
    sim::FaultPlan plan;
    plan.seed = 1234;
    plan.drop_prob = 0.03;
    plan.corrupt_prob = 0.02;
    machine.set_fault_plan(plan);
    const CommSchedule schedule = balanced_exchange_schedule(8, 512);
    return run_resilient_schedule(machine, schedule);
  };
  const ResilientRunReport a = run_once();
  const ResilientRunReport b = run_once();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.recv_timeouts, b.recv_timeouts);
  EXPECT_EQ(a.corrupt_detected, b.corrupt_detected);
  EXPECT_EQ(a.edges_delivered, b.edges_delivered);
  EXPECT_EQ(a.run.finish_time, b.run.finish_time);
}

TEST(ResilientExecutorTest, OverheadIsReportedAgainstFaultFreeBaseline) {
  auto machine = make_machine(8);
  sim::FaultPlan plan;
  plan.seed = 21;
  plan.drop_prob = 0.05;
  machine.set_fault_plan(plan);

  const CommSchedule schedule = balanced_exchange_schedule(8, 512);
  const ResilientRunReport report =
      run_resilient_schedule(machine, schedule);

  EXPECT_GT(report.fault_free_makespan, 0);
  EXPECT_GE(report.makespan, report.fault_free_makespan);
  EXPECT_GE(report.makespan_overhead(), 1.0);
  // The summary renders without crashing and mentions the key numbers.
  const std::string text = report.to_string();
  EXPECT_NE(text.find("edges delivered"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Backoff boundary behaviour
// ---------------------------------------------------------------------------

TEST(ResilientBackoffTest, DoublesThenClampsWithoutOverflow) {
  ResilientOptions o;
  o.backoff_base = from_us(100);
  o.backoff_max = util::from_ms(20);
  o.backoff_jitter = 0.0;
  EXPECT_EQ(resilient_backoff(o, 0, 1), from_us(100));
  EXPECT_EQ(resilient_backoff(o, 1, 1), from_us(200));
  EXPECT_EQ(resilient_backoff(o, 2, 1), from_us(400));
  EXPECT_EQ(resilient_backoff(o, 7, 1), from_us(12800));
  // 100 us << 8 = 25.6 ms: past the cap from here on.
  EXPECT_EQ(resilient_backoff(o, 8, 1), util::from_ms(20));
  EXPECT_EQ(resilient_backoff(o, 61, 1), util::from_ms(20));
  // Shifts that would overflow the 63-bit duration still return the cap.
  EXPECT_EQ(resilient_backoff(o, 62, 1), util::from_ms(20));
  EXPECT_EQ(resilient_backoff(o, std::numeric_limits<std::int32_t>::max(), 1),
            util::from_ms(20));
  // Degenerate configurations.
  EXPECT_EQ(resilient_backoff(o, -3, 1), from_us(100));  // clamped to 0
  o.backoff_base = 0;
  EXPECT_EQ(resilient_backoff(o, 5, 1), 0);
}

TEST(ResilientBackoffTest, JitterIsDeterministicAndBounded) {
  ResilientOptions o;
  o.backoff_base = from_us(100);
  o.backoff_max = util::from_ms(20);
  o.backoff_jitter = 0.25;
  bool saw_distinct = false;
  for (std::uint64_t key = 1; key <= 64; ++key) {
    const util::SimDuration d = resilient_backoff(o, 3, key);
    EXPECT_EQ(d, resilient_backoff(o, 3, key));  // pure function of the key
    // Jitter only ever shortens, by at most backoff_jitter of the value.
    EXPECT_LE(d, from_us(800));
    EXPECT_GE(d, from_us(600));
    if (d != resilient_backoff(o, 3, key + 1)) saw_distinct = true;
  }
  EXPECT_TRUE(saw_distinct);  // keys actually desynchronize peers
}

// ---------------------------------------------------------------------------
// Ack loss
// ---------------------------------------------------------------------------

TEST(ResilientExecutorTest, LostAcksCauseRetriesNotFalseSuspicion) {
  // One directed edge 0 -> 1, so the only 1 -> 0 traffic is the ack.
  // Targeted drops pierce the control_tag_floor exemption: kill the
  // first two acks. The sender must time out and resend, the receiver's
  // end-of-step drain re-acks the duplicate copies, and the edge ends
  // delivered with nobody suspected.
  auto machine = make_machine(4);
  sim::FaultPlan plan;
  plan.targeted_drops.push_back({1, 0, 0});
  plan.targeted_drops.push_back({1, 0, 1});
  machine.set_fault_plan(plan);

  CommPattern pattern(4);
  pattern.set(0, 1, 512);
  const CommSchedule schedule = build_schedule(Scheduler::Linear, pattern);
  ResilientOptions options;
  options.measure_fault_free_baseline = false;
  const ResilientRunReport report =
      run_resilient_schedule(machine, schedule, options);

  EXPECT_EQ(report.edges_total, 1);
  EXPECT_EQ(report.edges_delivered, 1) << report.to_string();
  EXPECT_TRUE(report.lost_edges.empty());
  EXPECT_TRUE(report.dead_nodes.empty());
  EXPECT_EQ(report.repairs, 0);
  EXPECT_GE(report.retries, 2);        // one resend per killed ack
  EXPECT_GE(report.recv_timeouts, 2);  // the sender's ack waits expired
}

TEST(ResilientExecutorTest, AckLossUnderFixedPolicyAlsoRecovers) {
  // Same scenario through the fixed-timeout oracle: the recovery path
  // must not depend on the adaptive estimator.
  auto machine = make_machine(4);
  sim::FaultPlan plan;
  plan.targeted_drops.push_back({1, 0, 0});
  machine.set_fault_plan(plan);

  CommPattern pattern(4);
  pattern.set(0, 1, 512);
  const CommSchedule schedule = build_schedule(Scheduler::Linear, pattern);
  ResilientOptions options;
  options.timeout_policy = TimeoutPolicy::kFixed;
  options.measure_fault_free_baseline = false;
  const ResilientRunReport report =
      run_resilient_schedule(machine, schedule, options);

  EXPECT_EQ(report.edges_delivered, 1) << report.to_string();
  EXPECT_TRUE(report.dead_nodes.empty());
  EXPECT_GE(report.retries, 1);
}

// ---------------------------------------------------------------------------
// Gray failure: slow is not dead
// ---------------------------------------------------------------------------

TEST(ResilientExecutorTest, GraySlowNodeIsWaitedOutNotExcised) {
  // Node 3 runs 3x slow for the whole schedule. The suspicion threshold
  // must wait it out: full delivery, no repairs, nobody excised — just a
  // longer makespan than the fault-free baseline.
  auto machine = make_machine(8);
  sim::FaultPlan plan;
  plan.slowdowns.push_back({3, 0, util::kTimeNever, 3.0});
  machine.set_fault_plan(plan);

  const CommSchedule schedule = balanced_exchange_schedule(8, 512);
  const ResilientRunReport report =
      run_resilient_schedule(machine, schedule);

  EXPECT_EQ(report.edges_delivered, report.edges_total)
      << report.to_string();
  EXPECT_TRUE(report.dead_nodes.empty()) << report.to_string();
  EXPECT_TRUE(report.lost_edges.empty());
  EXPECT_EQ(report.repairs, 0);
  EXPECT_GE(report.makespan, report.fault_free_makespan);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

TEST(ResilientCheckpointTest, JsonRoundTripsAndRejectsGarbage) {
  ResilientCheckpoint cp;
  cp.nprocs = 8;
  cp.num_steps = 7;
  cp.steps_completed = 3;
  cp.config_digest = 0xdeadbeefcafef00dULL;
  cp.step_digests = {0x1ULL, 0, 0xffffffffffffffffULL};
  cp.dead_nodes = {2, 5};
  cp.delivered_keys = {1, 9, 64};

  const ResilientCheckpoint back =
      ResilientCheckpoint::from_json(cp.to_json());
  EXPECT_EQ(back.nprocs, cp.nprocs);
  EXPECT_EQ(back.num_steps, cp.num_steps);
  EXPECT_EQ(back.steps_completed, cp.steps_completed);
  EXPECT_EQ(back.config_digest, cp.config_digest);
  EXPECT_EQ(back.step_digests, cp.step_digests);
  EXPECT_EQ(back.dead_nodes, cp.dead_nodes);
  EXPECT_EQ(back.delivered_keys, cp.delivered_keys);

  EXPECT_THROW(ResilientCheckpoint::from_json(
                   util::json::Value::parse("{\"nprocs\": 8}")),
               std::runtime_error);
  EXPECT_THROW(ResilientCheckpoint::from_json(
                   util::json::Value::parse("[1, 2, 3]")),
               std::runtime_error);
}

TEST(ResilientCheckpointTest, StoppedRunResumesToIdenticalReport) {
  // Stop after step 2 of a faulty run, then resume from the emitted
  // checkpoint: the resumed report must match the uninterrupted run's
  // JSON byte for byte.
  sim::FaultPlan plan;
  plan.seed = 404;
  plan.drop_prob = 0.03;
  plan.deaths.push_back({6, from_us(2000)});
  const CommSchedule schedule = balanced_exchange_schedule(8, 512);

  auto machine_full = make_machine(8);
  machine_full.set_fault_plan(plan);
  const ResilientRunReport full =
      run_resilient_schedule(machine_full, schedule);

  std::shared_ptr<const ResilientCheckpoint> token;
  ResilientOptions stop_options;
  stop_options.stop_after_step = 2;
  stop_options.checkpoint_sink = [&](const ResilientCheckpoint& cp) {
    token = std::make_shared<ResilientCheckpoint>(cp);
  };
  auto machine_stop = make_machine(8);
  machine_stop.set_fault_plan(plan);
  const ResilientRunReport partial =
      run_resilient_schedule(machine_stop, schedule, stop_options);
  ASSERT_NE(token, nullptr);
  EXPECT_EQ(token->steps_completed, 3);
  EXPECT_EQ(partial.steps_completed, 3);
  // Pinned digest format: a checkpoint written by an earlier build must
  // still resume, so these values change only with a format change.
  const util::json::Value json = token->to_json();
  EXPECT_EQ(json.at("config_digest").as_string(), "9f15129e3673307c");
  EXPECT_EQ(json.at("step_digests").dump(),
            R"(["f664d5b9c71c586d","c06830065aa3a22c","8828bffd16a1a3ef"])");

  ResilientOptions resume_options;
  resume_options.resume_from = token;
  auto machine_resume = make_machine(8);
  machine_resume.set_fault_plan(plan);
  const ResilientRunReport resumed =
      run_resilient_schedule(machine_resume, schedule, resume_options);
  EXPECT_EQ(resumed.to_json().dump(), full.to_json().dump());
}

TEST(ResilientCheckpointTest, ResumeRejectsMismatchedConfiguration) {
  // A checkpoint from one schedule must not replay against another.
  const CommSchedule schedule = balanced_exchange_schedule(8, 512);
  std::shared_ptr<const ResilientCheckpoint> token;
  ResilientOptions stop_options;
  stop_options.stop_after_step = 1;
  stop_options.checkpoint_sink = [&](const ResilientCheckpoint& cp) {
    token = std::make_shared<ResilientCheckpoint>(cp);
  };
  auto machine = make_machine(8);
  run_resilient_schedule(machine, schedule, stop_options);
  ASSERT_NE(token, nullptr);

  const CommSchedule other = balanced_exchange_schedule(8, 256);
  ResilientOptions resume_options;
  resume_options.resume_from = token;
  auto machine2 = make_machine(8);
  EXPECT_THROW(run_resilient_schedule(machine2, other, resume_options),
               util::CheckError);
}

}  // namespace
}  // namespace cm5::sched
