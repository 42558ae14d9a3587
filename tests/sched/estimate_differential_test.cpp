#include "cm5/sched/estimate.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "cm5/machine/machine.hpp"
#include "cm5/sched/builders.hpp"
#include "cm5/sched/complete_exchange.hpp"
#include "cm5/sched/executor.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/sim/trace.hpp"
#include "batch_analysis.hpp"

/// Differential tests between the analytic cost model and the executed
/// simulation: the model's step count must agree with both the
/// schedule's own accounting (num_busy_steps) and the step count the
/// executor actually produced, as recovered from message tags by
/// sim::analyze. A drift in any one of the three is a bug in the model,
/// the executor, or the metrics layer.

namespace cm5::sched {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;
using machine::Node;

class EstimateDifferential : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(EstimateDifferential, StepCountsAgreeOnCompleteExchange) {
  const std::int32_t nprocs = GetParam();
  const CommPattern pattern = CommPattern::complete_exchange(nprocs, 256);
  const auto params = MachineParams::cm5_defaults(nprocs);

  for (const Scheduler scheduler :
       {Scheduler::Linear, Scheduler::Pairwise, Scheduler::Balanced,
        Scheduler::Greedy}) {
    const CommSchedule schedule = build_schedule(scheduler, pattern);
    const std::int32_t from_schedule = schedule.num_busy_steps();
    const std::int32_t from_model = estimated_busy_steps(schedule, params);
    EXPECT_EQ(from_model, from_schedule) << scheduler_name(scheduler);

    Cm5Machine m(params);
    const machine::ObservedRun observed =
        run_scheduled_pattern_observed(m, scheduler, pattern);
    EXPECT_TRUE(observed.violations.empty()) << scheduler_name(scheduler);
    EXPECT_EQ(observed.metrics.observed_steps(), from_schedule)
        << scheduler_name(scheduler) << " at N=" << nprocs;
    EXPECT_EQ(observed.result.makespan, observed.metrics.makespan);
  }
}

TEST_P(EstimateDifferential, RegularAlgorithmsMatchAnalyticStepCounts) {
  // The paper's closed-form step counts, confirmed from executed traces:
  // LEX runs N steps, PEX/BEX N-1, REX lg N.
  const std::int32_t nprocs = GetParam();
  std::int32_t lg = 0;
  while ((1 << lg) < nprocs) ++lg;

  const auto observed_steps = [&](ExchangeAlgorithm alg) {
    Cm5Machine m(MachineParams::cm5_defaults(nprocs));
    sim::TraceRecorder recorder;
    const sim::RunResult r = m.run_traced(
        [alg](Node& node) { complete_exchange(node, alg, 64); },
        recorder.sink());
    EXPECT_EQ(sim::validation_report(recorder.events(), nprocs, &r), "")
        << exchange_name(alg);
    return sim::analyze(recorder, nprocs, &r).observed_steps();
  };

  EXPECT_EQ(observed_steps(ExchangeAlgorithm::Linear), nprocs);
  EXPECT_EQ(observed_steps(ExchangeAlgorithm::Pairwise), nprocs - 1);
  EXPECT_EQ(observed_steps(ExchangeAlgorithm::Balanced), nprocs - 1);
  EXPECT_EQ(observed_steps(ExchangeAlgorithm::Recursive), lg);
}

TEST_P(EstimateDifferential, EstimateJsonIsSelfConsistent) {
  const std::int32_t nprocs = GetParam();
  const CommPattern pattern = CommPattern::complete_exchange(nprocs, 256);
  const auto params = MachineParams::cm5_defaults(nprocs);
  const CommSchedule schedule = build_schedule(Scheduler::Pairwise, pattern);

  const util::json::Value doc = estimate_json(schedule, params);
  EXPECT_EQ(doc.at("num_steps").as_int(), schedule.num_steps());
  EXPECT_EQ(doc.at("busy_steps").as_int(),
            estimated_busy_steps(schedule, params));
  EXPECT_EQ(doc.at("step_times_ns").size(),
            static_cast<std::size_t>(schedule.num_steps()));
  EXPECT_EQ(doc.at("total_ns").as_int(),
            estimate_schedule_time(schedule, params));

  // Total = sum of busy-step times plus one control-network barrier per
  // busy step (the model is step-synchronized).
  std::int64_t sum = 0;
  std::int64_t busy = 0;
  for (std::size_t i = 0; i < doc.at("step_times_ns").size(); ++i) {
    const std::int64_t t = doc.at("step_times_ns").at(i).as_int();
    sum += t;
    if (t > 0) ++busy;
  }
  EXPECT_EQ(busy, doc.at("busy_steps").as_int());
  EXPECT_EQ(sum + busy * params.ctl_latency, doc.at("total_ns").as_int());
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, EstimateDifferential,
                         ::testing::Values(8, 16, 32),
                         [](const auto& param_info) {
                           std::string name = "N";
                           name += std::to_string(param_info.param);
                           return name;
                         });

}  // namespace
}  // namespace cm5::sched
