#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "cm5/machine/machine.hpp"
#include "cm5/net/fluid_network.hpp"
#include "cm5/net/topology.hpp"
#include "cm5/patterns/synthetic.hpp"
#include "cm5/sched/coloring.hpp"
#include "cm5/sched/executor.hpp"
#include "cm5/sched/resilient_executor.hpp"
#include "cm5/sim/fault.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/util/rng.hpp"

/// Randomized stress tests: generate random-but-valid communication
/// programs and verify the kernel's global invariants — no deadlock, all
/// traffic delivered, deterministic timing — across many seeds. These
/// hunt for rendezvous-matching and event-ordering bugs that the
/// structured tests cannot reach.

namespace cm5 {
namespace {

using machine::Cm5Machine;
using machine::MachineParams;
using machine::Node;

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, RandomScheduleExecutesAndDelivers) {
  // A random pattern scheduled by every builder must execute without
  // deadlock and move exactly pattern.num_messages() messages.
  util::Rng rng(GetParam());
  const auto nprocs = static_cast<std::int32_t>(1 << rng.next_in(1, 5));
  const double density = 0.05 + rng.next_double() * 0.9;
  const auto bytes = rng.next_in(1, 4096);
  const auto pattern = patterns::random_density(nprocs, density, bytes,
                                                GetParam() * 31 + 7);
  for (const auto scheduler :
       {sched::Scheduler::Linear, sched::Scheduler::Pairwise,
        sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
    Cm5Machine m(MachineParams::cm5_defaults(nprocs));
    const auto r = run_scheduled_pattern(m, scheduler, pattern);
    EXPECT_EQ(r.network.flows_completed, pattern.num_messages())
        << sched::scheduler_name(scheduler) << " nprocs=" << nprocs;
  }
  // The colouring scheduler too (it is not in the Scheduler enum).
  const auto schedule = sched::build_coloring(pattern);
  Cm5Machine m(MachineParams::cm5_defaults(nprocs));
  const auto r = m.run(
      [&](Node& node) { sched::execute_schedule(node, schedule); });
  EXPECT_EQ(r.network.flows_completed, pattern.num_messages());
}

TEST_P(FuzzTest, RandomPairedTrafficDeliversPayloadsIntact) {
  // Random sequence of matched point-to-point messages with payload
  // checksums: every byte must arrive unmodified and in FIFO order per
  // (src, dst, tag).
  const std::uint64_t seed = GetParam();
  const std::int32_t nprocs = 8;
  util::Rng rng(seed);

  // Plan: `rounds` rounds; in each round a random permutation pairs
  // senders and receivers.
  struct PlannedMessage {
    machine::NodeId src;
    machine::NodeId dst;
    std::int32_t bytes;
  };
  std::vector<std::vector<PlannedMessage>> by_round;
  for (int round = 0; round < 20; ++round) {
    std::vector<machine::NodeId> perm(static_cast<std::size_t>(nprocs));
    for (std::int32_t i = 0; i < nprocs; ++i) perm[static_cast<std::size_t>(i)] = i;
    for (std::size_t i = perm.size() - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.next_below(i + 1)]);
    }
    std::vector<PlannedMessage> round_messages;
    for (std::int32_t i = 0; i < nprocs; ++i) {
      const machine::NodeId dst = perm[static_cast<std::size_t>(i)];
      if (dst == i) continue;
      round_messages.push_back(PlannedMessage{
          i, dst, static_cast<std::int32_t>(rng.next_in(1, 2000))});
    }
    by_round.push_back(std::move(round_messages));
  }

  Cm5Machine m(MachineParams::cm5_defaults(nprocs));
  m.run([&](Node& node) {
    for (std::size_t round = 0; round < by_round.size(); ++round) {
      const auto tag = static_cast<std::int32_t>(round);
      for (const PlannedMessage& pm : by_round[round]) {
        if (pm.src == node.self()) {
          std::vector<std::byte> payload(static_cast<std::size_t>(pm.bytes));
          for (std::size_t k = 0; k < payload.size(); ++k) {
            payload[k] = static_cast<std::byte>(
                (pm.src * 7 + pm.dst * 13 + static_cast<std::int32_t>(k)) % 256);
          }
          node.send_block_data(pm.dst, payload, tag);
        } else if (pm.dst == node.self()) {
          const machine::Message msg = node.receive_block(pm.src, tag);
          ASSERT_EQ(msg.size, pm.bytes);
          for (std::size_t k = 0; k < msg.data.size(); ++k) {
            ASSERT_EQ(msg.data[k],
                      static_cast<std::byte>(
                          (pm.src * 7 + pm.dst * 13 +
                           static_cast<std::int32_t>(k)) %
                          256));
          }
        }
      }
    }
  });
}

TEST_P(FuzzTest, MixedPrimitivesAreDeterministic) {
  // Random mix of compute, barriers, reductions and ring traffic —
  // identical timing across two executions.
  const std::uint64_t seed = GetParam();
  auto one_run = [&] {
    Cm5Machine m(MachineParams::cm5_defaults(8));
    return m.run([&](Node& node) {
      util::Rng rng = util::Rng::forked(seed, static_cast<std::uint64_t>(node.self()));
      for (int op = 0; op < 30; ++op) {
        // All nodes draw from different streams but the *shared* ops
        // (barrier cadence, ring rounds) are fixed by `op`.
        node.compute(util::from_us(rng.next_in(1, 50)));
        if (op % 5 == 0) node.barrier();
        if (op % 7 == 0) {
          const auto next =
              static_cast<machine::NodeId>((node.self() + 1) % node.nprocs());
          const auto prev = static_cast<machine::NodeId>(
              (node.self() + node.nprocs() - 1) % node.nprocs());
          if (node.self() % 2 == 0) {
            node.send_block(next, rng.next_in(0, 512), 1000 + op);
            (void)node.receive_block(prev, 1000 + op);
          } else {
            (void)node.receive_block(prev, 1000 + op);
            node.send_block(next, rng.next_in(0, 512), 1000 + op);
          }
        }
        if (op % 11 == 0) {
          (void)node.reduce_sum(static_cast<double>(node.self()));
        }
      }
    });
  };
  const auto a = one_run();
  const auto b = one_run();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.finish_time, b.finish_time);
}

TEST_P(FuzzTest, TracedRunsSatisfyAllInvariants) {
  // Property test for the metrics layer: over random patterns at the
  // paper's density range (10%..75%) and every scheduler, a traced run
  // must pass sim::validate_trace and conserve messages and bytes
  // between posting and delivery.
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed * 977 + 5);
  const auto nprocs = static_cast<std::int32_t>(1 << rng.next_in(2, 5));
  const double density = 0.10 + rng.next_double() * 0.65;
  const auto bytes = rng.next_in(1, 2048);
  const auto pattern =
      patterns::exact_density(nprocs, density, bytes, seed * 31 + 7);

  for (const auto scheduler :
       {sched::Scheduler::Linear, sched::Scheduler::Pairwise,
        sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
    Cm5Machine m(MachineParams::cm5_defaults(nprocs));
    const machine::ObservedRun observed =
        sched::run_scheduled_pattern_observed(m, scheduler, pattern);
    EXPECT_TRUE(observed.violations.empty())
        << sched::scheduler_name(scheduler) << " nprocs=" << nprocs
        << " density=" << density;
    for (const std::string& v : observed.violations) ADD_FAILURE() << v;

    const sim::RunMetrics& metrics = observed.metrics;
    EXPECT_EQ(metrics.messages_posted, pattern.num_messages());
    EXPECT_EQ(metrics.transfers_completed, pattern.num_messages());
    EXPECT_EQ(metrics.bytes_posted, pattern.num_messages() * bytes);
    EXPECT_EQ(metrics.bytes_delivered, metrics.bytes_posted);
    EXPECT_EQ(metrics.transfers_dropped, 0);
    EXPECT_EQ(metrics.makespan, observed.result.makespan);
    // The per-node breakdown tiles each node's lifetime exactly.
    for (const sim::NodeTimeBreakdown& n : metrics.nodes) {
      EXPECT_EQ(n.compute + n.total_wait() + n.idle_tail, metrics.makespan)
          << sched::scheduler_name(scheduler) << " node " << n.node;
    }
    // Conservation across the link matrix.
    std::int64_t link_bytes = 0;
    for (const sim::LinkTraffic& l : metrics.links) link_bytes += l.bytes;
    EXPECT_EQ(link_bytes, metrics.bytes_delivered);
  }
}

TEST_P(FuzzTest, FaultyResilientRunsSatisfyRelaxedInvariants) {
  // Same property under fault injection: traces from resilient runs
  // (drops + delays + one fail-stop death on odd seeds) must still pass
  // validate_trace — its completeness checks stand down under faults,
  // but monotonicity, id sanity and makespan consistency never do.
  const std::uint64_t seed = GetParam();
  const std::int32_t nprocs = 8;
  const auto pattern = patterns::exact_density(
      nprocs, 0.10 + 0.65 * static_cast<double>(seed % 5) / 4.0, 512,
      seed * 131 + 17);
  const auto schedule = sched::build_schedule(sched::Scheduler::Greedy,
                                              pattern);

  sim::FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = 0.05;
  plan.delay_prob = 0.10;
  plan.delay = util::from_us(50);
  if (seed % 2 == 1) {
    plan.deaths.push_back({static_cast<machine::NodeId>(seed % nprocs),
                           util::from_us(300)});
  }

  Cm5Machine m(MachineParams::cm5_defaults(nprocs));
  m.set_fault_plan(plan);
  sim::TraceRecorder recorder;
  sched::ResilientOptions options;
  options.trace = recorder.sink();
  const auto report = sched::run_resilient_schedule(m, schedule, options);

  const auto violations =
      sim::validate_trace(recorder.events(), nprocs, &report.run);
  EXPECT_TRUE(violations.empty()) << "seed " << seed;
  for (const std::string& v : violations) ADD_FAILURE() << v;

  const sim::RunMetrics metrics =
      sim::analyze(recorder, nprocs, &report.run);
  EXPECT_EQ(metrics.makespan, report.run.makespan);
  EXPECT_LE(metrics.bytes_delivered, metrics.bytes_posted);
  EXPECT_GE(report.delivery_rate(), 0.0);
  if (plan.deaths.empty()) {
    // With retries, everything must eventually arrive.
    EXPECT_EQ(report.edges_delivered, report.edges_total) << "seed " << seed;
  }
}

TEST_P(FuzzTest, IncrementalSolverMatchesOracle) {
  // Differential test for the fluid network's incremental max-min solver:
  // drive two networks — one incremental (the production path), one using
  // the from-scratch oracle solve — through an identical randomized
  // sequence of flow starts, partial/full advances and link faults
  // (degraded, dead and restored links), and require bit-identical events
  // and rates after every operation. Each operation is
  // one "case": 12 seeds x 90 ops >= 1000 cases across the suite.
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed * 7919 + 3);
  const auto nprocs = static_cast<std::int32_t>(1 << rng.next_in(2, 6));
  const net::FatTreeTopology topo(net::FatTreeConfig::cm5(nprocs));
  net::FluidNetwork inc(topo);
  net::FluidNetwork ora(topo);
  ASSERT_EQ(inc.solver_mode(), net::FluidNetwork::SolverMode::kIncremental);
  ora.set_solver_mode(net::FluidNetwork::SolverMode::kOracle);

  // Flow density varies per seed: bursts are larger for high-density seeds.
  const auto max_burst = 1 + static_cast<std::int32_t>(seed % 5);
  util::SimTime t = 0;
  std::vector<net::FlowId> live;  // ids are identical in both networks
  int cases = 0;
  for (int op = 0; op < 90; ++op) {
    const std::uint64_t pick = rng.next_below(10);
    if (pick < 5 || live.empty()) {
      // Start a burst of flows (same arguments, hence same ids, in both).
      const std::int64_t burst = rng.next_in(1, max_burst);
      for (std::int64_t k = 0; k < burst; ++k) {
        const auto src = static_cast<net::NodeId>(
            rng.next_below(static_cast<std::uint64_t>(nprocs)));
        auto dst = static_cast<net::NodeId>(
            rng.next_below(static_cast<std::uint64_t>(nprocs)));
        if (dst == src) dst = (dst + 1) % nprocs;
        const auto bytes = static_cast<double>(rng.next_in(1, 4096));
        const net::FlowId a = inc.start_flow(t, src, dst, bytes);
        const net::FlowId b = ora.start_flow(t, src, dst, bytes);
        ASSERT_EQ(a, b);
        live.push_back(a);
      }
    } else if (pick < 8) {
      // Advance: both networks must agree on the next completion time;
      // half the time stop short of it (partial progress).
      const auto ev_inc = inc.next_event();
      const auto ev_ora = ora.next_event();
      ASSERT_EQ(ev_inc.has_value(), ev_ora.has_value());
      if (ev_inc.has_value()) {
        ASSERT_EQ(*ev_inc, *ev_ora) << "seed " << seed << " op " << op;
        util::SimTime target = *ev_inc;
        if (rng.next_below(2) == 0 && target > t) {
          target = t + (target - t) / 2;  // partial advance, no completion
        }
        t = target;
        const auto done_inc = inc.advance_to(t);
        const auto done_ora = ora.advance_to(t);
        ASSERT_EQ(done_inc, done_ora) << "seed " << seed << " op " << op;
        for (const net::FlowId id : done_inc) {
          live.erase(std::find(live.begin(), live.end(), id));
        }
      }
    } else {
      // Fault injection: degrade, kill or restore a random link.
      const auto link = static_cast<net::LinkId>(
          rng.next_below(static_cast<std::uint64_t>(topo.num_links())));
      const double scales[] = {0.0, 0.25, 1.0};
      const double scale = scales[rng.next_below(3)];
      inc.set_link_capacity_scale(t, link, scale);
      ora.set_link_capacity_scale(t, link, scale);
    }
    for (const net::FlowId id : live) {
      const double ra = inc.flow_rate(id);
      const double rb = ora.flow_rate(id);
      ASSERT_EQ(ra, rb) << "seed " << seed << " op " << op << " flow " << id;
    }
    ++cases;
  }
  EXPECT_GE(cases, 90);
  EXPECT_EQ(inc.stats().flows_started, ora.stats().flows_started);
  EXPECT_EQ(inc.stats().flows_completed, ora.stats().flows_completed);
}

TEST_P(FuzzTest, CheckpointKillResumeIsBitIdentical) {
  // Checkpoint/kill/resume fuzz: run a faulty resilient schedule to
  // completion, then for *every* step boundary kill a fresh run right
  // after that step's agreement, capture the checkpoint it emitted, and
  // resume a third run from it. The resumed run's report must match the
  // uninterrupted run's JSON byte for byte — deterministic replay with a
  // verified digest chain, not approximate recovery.
  const std::uint64_t seed = GetParam();
  const std::int32_t nprocs = 8;
  const auto pattern = patterns::exact_density(
      nprocs, 0.2 + 0.5 * static_cast<double>(seed % 4) / 3.0, 256,
      seed * 719 + 3);

  sim::FaultPlan plan;
  plan.seed = seed * 13 + 1;
  plan.drop_prob = 0.04;
  plan.corrupt_prob = 0.02;
  if (seed % 3 == 0) {
    plan.deaths.push_back({static_cast<machine::NodeId>(seed % nprocs),
                           util::from_us(1500)});
  }

  for (const auto scheduler :
       {sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
    const auto schedule = sched::build_schedule(scheduler, pattern);
    sched::ResilientOptions options;
    options.measure_fault_free_baseline = false;

    Cm5Machine full_machine(MachineParams::cm5_defaults(nprocs));
    full_machine.set_fault_plan(plan);
    const auto full =
        sched::run_resilient_schedule(full_machine, schedule, options);
    const std::string want = full.to_json().dump();

    for (std::int32_t step = 0; step < schedule.num_steps(); ++step) {
      std::shared_ptr<const sched::ResilientCheckpoint> token;
      sched::ResilientOptions stop = options;
      stop.stop_after_step = step;
      stop.checkpoint_sink = [&](const sched::ResilientCheckpoint& cp) {
        token = std::make_shared<sched::ResilientCheckpoint>(cp);
      };
      Cm5Machine stop_machine(MachineParams::cm5_defaults(nprocs));
      stop_machine.set_fault_plan(plan);
      const auto partial =
          sched::run_resilient_schedule(stop_machine, schedule, stop);
      ASSERT_NE(token, nullptr)
          << sched::scheduler_name(scheduler) << " seed " << seed
          << " step " << step;
      EXPECT_EQ(partial.steps_completed, step + 1);
      EXPECT_EQ(token->steps_completed, step + 1);

      sched::ResilientOptions resume = options;
      resume.resume_from = token;
      Cm5Machine resume_machine(MachineParams::cm5_defaults(nprocs));
      resume_machine.set_fault_plan(plan);
      const auto resumed =
          sched::run_resilient_schedule(resume_machine, schedule, resume);
      EXPECT_EQ(resumed.to_json().dump(), want)
          << sched::scheduler_name(scheduler) << " seed " << seed
          << " killed after step " << step;
    }
  }
}

// --- run-to-run determinism of a traced run --------------------------------

struct RunCapture {
  std::vector<sim::TraceEvent> events;
  sim::RunResult result;
};

RunCapture capture_run(std::int32_t nprocs, const machine::Program& program) {
  Cm5Machine m(MachineParams::cm5_defaults(nprocs));
  sim::TraceRecorder recorder;
  RunCapture out;
  out.result = m.run_traced(program, recorder.sink());
  out.events = recorder.events();
  return out;
}

/// Two captures of the same program must describe byte-identical
/// simulations — same event stream (order included), same per-node
/// results, same network stats.
void expect_runs_identical(const RunCapture& x, const RunCapture& y,
                           const std::string& what) {
  ASSERT_EQ(x.events.size(), y.events.size()) << what;
  for (std::size_t i = 0; i < x.events.size(); ++i) {
    const sim::TraceEvent& a = x.events[i];
    const sim::TraceEvent& b = y.events[i];
    ASSERT_TRUE(a.kind == b.kind && a.time == b.time && a.node == b.node &&
                a.peer == b.peer && a.bytes == b.bytes && a.tag == b.tag)
        << what << " diverges at event " << i << ":\n  first : "
        << sim::to_string(a) << "\n  second: " << sim::to_string(b);
  }
  EXPECT_EQ(x.result.makespan, y.result.makespan) << what;
  EXPECT_EQ(x.result.finish_time, y.result.finish_time) << what;
  ASSERT_EQ(x.result.node_counters.size(), y.result.node_counters.size());
  for (std::size_t i = 0; i < x.result.node_counters.size(); ++i) {
    const sim::NodeCounters& a = x.result.node_counters[i];
    const sim::NodeCounters& b = y.result.node_counters[i];
    EXPECT_EQ(a.sends, b.sends) << what << " node " << i;
    EXPECT_EQ(a.receives, b.receives) << what << " node " << i;
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << what << " node " << i;
    EXPECT_EQ(a.global_ops, b.global_ops) << what << " node " << i;
    EXPECT_EQ(a.compute_time, b.compute_time) << what << " node " << i;
  }
  EXPECT_EQ(x.result.network.flows_started, y.result.network.flows_started)
      << what;
  EXPECT_EQ(x.result.network.flows_completed,
            y.result.network.flows_completed)
      << what;
  EXPECT_EQ(x.result.network.bytes_by_level, y.result.network.bytes_by_level)
      << what;
}

TEST_P(FuzzTest, PrimitiveSoupIsDeterministic) {
  // 28 run pairs per seed: random programs exercising every blocking
  // primitive — compute, barriers, timed barriers, reductions, swaps,
  // async sends with drains, and timed receives that really expire.
  const std::uint64_t seed = GetParam();
  for (int variant = 0; variant < 28; ++variant) {
    util::Rng shape(seed * 409 + static_cast<std::uint64_t>(variant));
    const auto nprocs = static_cast<std::int32_t>(1 << shape.next_in(1, 4));
    const auto ops = static_cast<int>(shape.next_in(8, 24));
    const auto mix =
        static_cast<std::uint64_t>(shape.next_in(0, std::int64_t{1} << 30));
    const auto program = [&, nprocs, ops, mix](Node& node) {
      util::Rng rng = util::Rng::forked(
          seed * 31 + static_cast<std::uint64_t>(mix),
          static_cast<std::uint64_t>(node.self()));
      const auto next =
          static_cast<machine::NodeId>((node.self() + 1) % nprocs);
      const auto prev = static_cast<machine::NodeId>(
          (node.self() + nprocs - 1) % nprocs);
      for (int op = 0; op < ops; ++op) {
        node.compute(util::from_us(rng.next_in(1, 40)));
        switch ((static_cast<std::uint64_t>(op) + mix) % 6) {
          case 0:
            node.barrier();
            break;
          case 1:
            // Ring exchange; odd/even phasing avoids rendezvous deadlock.
            if (node.self() % 2 == 0) {
              node.send_block(next, rng.next_in(0, 512), 100 + op);
              (void)node.receive_block(prev, 100 + op);
            } else {
              (void)node.receive_block(prev, 100 + op);
              node.send_block(next, rng.next_in(0, 512), 100 + op);
            }
            break;
          case 2:
            (void)node.swap_block(node.self() % 2 == 0 ? next : prev,
                                  rng.next_in(1, 1024), 200 + op);
            break;
          case 3:
            node.send_async(next, rng.next_in(0, 256), 300 + op);
            (void)node.receive_block(prev, 300 + op);
            node.wait_sends();
            break;
          case 4:
            // Nothing was sent with this tag: the timed receive must
            // expire, at the same instant in both runs.
            EXPECT_FALSE(
                node.receive_timeout(prev, 9999, util::from_us(25)));
            break;
          default:
            (void)node.reduce_sum(static_cast<double>(node.self() + op));
            break;
        }
      }
      // A timed barrier everyone but node 0 joins. Node 0 computes far
      // past every deadline first, so the timed barrier deterministically
      // expires and each participant withdraws before node 0's final
      // barrier arrival could complete the pending generation.
      if (node.self() == 0) {
        node.compute(util::from_ms(50));
      } else {
        EXPECT_FALSE(node.try_barrier(util::from_us(10)));
      }
      node.barrier();
    };
    expect_runs_identical(capture_run(nprocs, program),
                          capture_run(nprocs, program),
                          "seed " + std::to_string(seed) + " soup " +
                              std::to_string(variant));
  }
}

// --- streaming-vs-batch analysis differential -------------------------------
//
// The streaming consumers (sim::MetricsBuilder / sim::TraceValidator)
// promise byte-identical output to the retained batch oracles
// (sim::analyze_batch / sim::validate_trace_batch) on any kernel-
// produced trace. Each compared trace is one case: 12 seeds x
// (28 clean + 28 faulty) cases across the suite. Metrics are compared
// through their full JSON dump (every node, step and link row),
// violations as exact string vectors.

void expect_streaming_matches_batch(const std::vector<sim::TraceEvent>& events,
                                    std::int32_t nprocs,
                                    const sim::RunResult* result,
                                    const std::string& what) {
  const sim::RunMetrics batch = sim::analyze_batch(events, nprocs, result);
  sim::MetricsBuilder builder(nprocs);
  for (const sim::TraceEvent& e : events) builder.on_event(e);
  const sim::RunMetrics streamed = builder.finalize(result);
  EXPECT_EQ(streamed.to_json(true).dump(), batch.to_json(true).dump()) << what;

  const std::vector<std::string> batch_violations =
      sim::validate_trace_batch(events, nprocs, result);
  sim::TraceValidator validator(nprocs);
  for (const sim::TraceEvent& e : events) validator.on_event(e);
  EXPECT_EQ(validator.finalize(result), batch_violations) << what;
}

TEST_P(FuzzTest, StreamingAnalysisMatchesBatchOnSchedules) {
  // 28 clean cases per seed: 7 random patterns x 4 schedulers.
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed * 8443 + 19);
  for (int variant = 0; variant < 7; ++variant) {
    const auto nprocs = static_cast<std::int32_t>(1 << rng.next_in(2, 5));
    const double density = 0.10 + rng.next_double() * 0.6;
    const auto bytes = rng.next_in(1, 2048);
    const auto pattern = patterns::random_density(
        nprocs, density, bytes,
        seed * 389 + static_cast<std::uint64_t>(variant));
    for (const auto scheduler :
         {sched::Scheduler::Linear, sched::Scheduler::Pairwise,
          sched::Scheduler::Balanced, sched::Scheduler::Greedy}) {
      const auto schedule = sched::build_schedule(scheduler, pattern);
      const RunCapture cap = capture_run(
          nprocs, [&](Node& node) { sched::execute_schedule(node, schedule); });
      expect_streaming_matches_batch(
          cap.events, nprocs, &cap.result,
          "seed " + std::to_string(seed) + " variant " +
              std::to_string(variant) + " " +
              std::string(sched::scheduler_name(scheduler)));
    }
  }
}

TEST_P(FuzzTest, StreamingAnalysisMatchesBatchOnFaultyRuns) {
  // 28 faulty cases per seed through the resilient executor: drops,
  // delays and fail-stop deaths put FaultDrop-after-TransferComplete
  // pairs, unmatched transfers and dead-node tails into the stream —
  // exactly the shapes the streaming drop lookahead and the relaxed
  // validator gates must reproduce.
  const std::uint64_t seed = GetParam();
  for (int variant = 0; variant < 28; ++variant) {
    util::Rng shape(seed * 2833 + static_cast<std::uint64_t>(variant) * 13);
    const std::int32_t nprocs = 8;
    const auto pattern = patterns::exact_density(
        nprocs, 0.15 + 0.5 * shape.next_double(), 256,
        seed * 1277 + static_cast<std::uint64_t>(variant));
    const auto schedule =
        sched::build_schedule(sched::Scheduler::Greedy, pattern);

    sim::FaultPlan plan;
    plan.seed = seed * 71 + static_cast<std::uint64_t>(variant);
    plan.drop_prob = 0.05 * static_cast<double>(shape.next_in(0, 2));
    plan.delay_prob = 0.10;
    plan.delay = util::from_us(50);
    if (variant % 3 == 1) {
      plan.deaths.push_back(
          {static_cast<machine::NodeId>(shape.next_below(
               static_cast<std::uint64_t>(nprocs))),
           util::from_us(shape.next_in(100, 900))});
    }

    Cm5Machine m(MachineParams::cm5_defaults(nprocs));
    m.set_fault_plan(plan);
    sim::TraceRecorder recorder;
    sched::ResilientOptions options;
    options.trace = recorder.sink();
    const auto report = sched::run_resilient_schedule(m, schedule, options);
    expect_streaming_matches_batch(
        recorder.events(), nprocs, &report.run,
        "seed " + std::to_string(seed) + " faulty " + std::to_string(variant));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

}  // namespace
}  // namespace cm5
