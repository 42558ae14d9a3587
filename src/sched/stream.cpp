#include "cm5/sched/stream.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "checkpoint_digest.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/sim/trace.hpp"
#include "cm5/util/check.hpp"
#include "cm5/util/rng.hpp"

/// The streaming schedule service (see stream.hpp for the contract).
///
/// The executor is a single deterministic event loop over *stream*
/// virtual time. Each iteration: pull arrivals up to the stream clock
/// (respecting the backpressure watermarks), shed under overload,
/// admit a batch by policy, concatenate the admitted requests' schedules
/// into one CommSchedule, run it through the resilient executor with the
/// fault script rebased to batch-local time, then fold the resilient
/// report back into per-request accounting. Nothing here reads host
/// state: the report is a pure function of (options, machine params).

namespace cm5::sched {

namespace {

/// Hash of everything that determines a stream run's trajectory. Guards
/// resume against configuration drift (a resumed stream must replay the
/// exact same run).
std::uint64_t stream_config_digest(const machine::Cm5Machine& machine,
                                   const StreamOptions& options) {
  digest::Fnv h;
  h.mix(static_cast<std::uint64_t>(machine.topology().num_nodes()));
  h.mix_string(options.workload.to_json().dump());
  h.mix(static_cast<std::uint64_t>(options.policy));
  h.mix(options.tenant_weights.size());
  for (const std::int32_t w : options.tenant_weights) {
    h.mix(static_cast<std::uint64_t>(w));
  }
  h.mix(static_cast<std::uint64_t>(options.max_batch_requests));
  h.mix(static_cast<std::uint64_t>(options.max_inflight_edges));
  h.mix(static_cast<std::uint64_t>(options.queue_high_watermark));
  h.mix(static_cast<std::uint64_t>(options.queue_low_watermark));
  h.mix(static_cast<std::uint64_t>(options.shed_watermark));
  h.mix(options.shed_expired ? 1 : 0);
  h.mix_string(options.fault_script.to_json().dump());
  digest::mix_resilient_options(h, options.resilient);
  h.mix(static_cast<std::uint64_t>(options.max_request_attempts));
  return h.value();
}

/// Rebases the stream-time fault script to batch-local time for a batch
/// launched at stream clock `clock`. Past deaths and degradations clamp
/// to t = 0 (a node dead at stream time T stays dead in every later
/// batch); expired windows are dropped. Probabilistic processes are
/// memoryless per transfer, so they carry over with a per-batch derived
/// seed (decorrelating identical schedules in different batches while
/// staying a pure function of the script seed and the batch index).
sim::FaultPlan rebase_fault_script(const sim::FaultPlan& script,
                                   util::SimTime clock,
                                   std::int64_t batch_index) {
  sim::FaultPlan plan = script;
  plan.seed = util::SplitMix64(script.seed ^
                               (0x9e3779b97f4a7c15ULL *
                                static_cast<std::uint64_t>(batch_index + 1)))
                  .next();

  plan.partitions.clear();
  for (const sim::FaultPlan::Partition& p : script.partitions) {
    if (p.end != util::kTimeNever && p.end <= clock) continue;  // healed
    sim::FaultPlan::Partition q = p;
    q.start = std::max<util::SimTime>(0, p.start - clock);
    if (p.end != util::kTimeNever) q.end = p.end - clock;
    plan.partitions.push_back(q);
  }

  plan.slowdowns.clear();
  for (const sim::FaultPlan::NodeSlowdown& s : script.slowdowns) {
    if (s.end != util::kTimeNever && s.end <= clock) continue;  // healed
    sim::FaultPlan::NodeSlowdown q = s;
    q.start = std::max<util::SimTime>(0, s.start - clock);
    if (s.end != util::kTimeNever) q.end = s.end - clock;
    plan.slowdowns.push_back(q);
  }

  plan.flaps.clear();
  for (const sim::FaultPlan::LinkFlap& f : script.flaps) {
    sim::FaultPlan::LinkFlap q = f;
    if (f.start >= clock) {
      q.start = f.start - clock;
    } else {
      // Mid-flight flap: restart the cycle at batch time 0 with the
      // cycles already elapsed deducted (phase resets per batch).
      q.start = 0;
      if (f.cycles > 0 && f.period > 0) {
        const std::int64_t elapsed_cycles = (clock - f.start) / f.period;
        if (elapsed_cycles >= f.cycles) continue;  // flapping over
        q.cycles = static_cast<std::int32_t>(f.cycles - elapsed_cycles);
      }
    }
    plan.flaps.push_back(q);
  }

  plan.deaths.clear();
  for (const sim::FaultPlan::NodeDeath& d : script.deaths) {
    sim::FaultPlan::NodeDeath q = d;
    q.time = std::max<util::SimTime>(0, d.time - clock);  // dead stays dead
    plan.deaths.push_back(q);
  }

  plan.degrades.clear();
  for (const sim::FaultPlan::LinkDegrade& d : script.degrades) {
    sim::FaultPlan::LinkDegrade q = d;
    q.time = std::max<util::SimTime>(0, d.time - clock);
    plan.degrades.push_back(q);
  }

  // Targeted drops count per-run transfer ordinals, which restart with
  // every batch; they are interpreted batch-locally and carried as-is.
  return plan;
}

/// One queued request plus its effective (post-backpressure) arrival.
struct QueueEntry {
  StreamRequest req;
  util::SimTime effective_arrival = 0;
};

/// Strips edges touching excised nodes from `pattern`; returns the
/// number of directed edges removed.
std::int64_t strip_excised_edges(CommPattern& pattern,
                                 const std::vector<std::uint8_t>& dead) {
  std::int64_t removed = 0;
  const std::int32_t n = pattern.nprocs();
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      if (src == dst || pattern.at(src, dst) == 0) continue;
      if (dead[static_cast<std::size_t>(src)] ||
          dead[static_cast<std::size_t>(dst)]) {
        pattern.set(src, dst, 0);
        ++removed;
      }
    }
  }
  return removed;
}

}  // namespace

const char* batch_policy_name(BatchPolicy policy) {
  switch (policy) {
    case BatchPolicy::kFifo:
      return "fifo";
    case BatchPolicy::kTenantFair:
      return "tenant_fair";
    case BatchPolicy::kDeadline:
      return "deadline";
  }
  return "unknown";
}

const char* request_outcome_name(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kPending:
      return "pending";
    case RequestOutcome::kCompleted:
      return "completed";
    case RequestOutcome::kRepaired:
      return "repaired";
    case RequestOutcome::kPartialLoss:
      return "partial_loss";
    case RequestOutcome::kShedOverload:
      return "shed_overload";
    case RequestOutcome::kShedDeadline:
      return "shed_deadline";
  }
  return "unknown";
}

// --------------------------------------------------------------------------
// Checkpoint serialization
// --------------------------------------------------------------------------

util::json::Value StreamCheckpoint::to_json() const {
  util::json::Value root = util::json::Value::object();
  root["config_digest"] = digest::hex(config_digest);
  root["batches_completed"] = batches_completed;
  root["stream_clock_ns"] = stream_clock;
  root["requests_generated"] = requests_generated;
  root["queue_ids"] = digest::int_array(queue_ids);
  root["excised_nodes"] = digest::int_array(excised_nodes);
  root["batch_digests"] = digest::hex_array(batch_digests);
  return root;
}

StreamCheckpoint StreamCheckpoint::from_json(const util::json::Value& v) {
  StreamCheckpoint c;
  digest::parse_checkpoint("malformed stream checkpoint", [&] {
    c.config_digest = digest::parse_hex(v.at("config_digest"));
    c.batches_completed = v.at("batches_completed").as_int();
    c.stream_clock = v.at("stream_clock_ns").as_int();
    c.requests_generated = v.at("requests_generated").as_int();
    c.queue_ids = digest::parse_int_array<std::int64_t>(v.at("queue_ids"));
    c.excised_nodes = digest::parse_int_array<NodeId>(v.at("excised_nodes"));
    c.batch_digests = digest::parse_hex_array(v.at("batch_digests"));
    return c.batches_completed >= 0 && c.stream_clock >= 0 &&
           c.requests_generated >= 0 &&
           c.batch_digests.size() ==
               static_cast<std::size_t>(c.batches_completed);
  });
  return c;
}

// --------------------------------------------------------------------------
// The executor
// --------------------------------------------------------------------------

StreamReport run_stream(machine::Cm5Machine& machine,
                        const StreamOptions& options) {
  const std::int32_t n = machine.topology().num_nodes();
  CM5_CHECK_MSG(options.workload.nodes == n,
                "stream workload nodes must match the machine partition");
  CM5_CHECK_MSG(options.max_batch_requests >= 1,
                "max_batch_requests must be >= 1");
  CM5_CHECK_MSG(options.max_inflight_edges >= 1,
                "max_inflight_edges must be >= 1");
  CM5_CHECK_MSG(options.queue_high_watermark >= 0 &&
                    options.queue_low_watermark >= 0,
                "stream watermarks must be >= 0");
  if (options.queue_high_watermark > 0) {
    CM5_CHECK_MSG(options.queue_low_watermark <= options.queue_high_watermark,
                  "queue_low_watermark must not exceed queue_high_watermark");
  }
  if (options.shed_watermark > 0 && options.queue_high_watermark > 0) {
    CM5_CHECK_MSG(options.shed_watermark >= options.queue_high_watermark,
                  "shed_watermark must be >= queue_high_watermark");
  }
  CM5_CHECK_MSG(options.max_request_attempts >= 1,
                "max_request_attempts must be >= 1");
  for (const std::int32_t w : options.tenant_weights) {
    CM5_CHECK_MSG(w >= 1, "tenant weights must be positive");
  }
  CM5_CHECK_MSG(!options.resilient.trace && !options.resilient.checkpoint_sink &&
                    options.resilient.stop_after_step == -1 &&
                    !options.resilient.resume_from,
                "resilient trace/checkpoint/stop/resume members are owned by "
                "the stream layer; configure the stream-level equivalents");
  options.fault_script.validate(n);

  const std::uint64_t config_digest = stream_config_digest(machine, options);
  const StreamCheckpoint* resume = options.resume_from.get();
  if (resume) {
    CM5_CHECK_MSG(resume->config_digest == config_digest,
                  "stream resume checkpoint from a different configuration");
  }

  // Per-tenant admission weights (kTenantFair), padded with 1.
  std::vector<std::int32_t> weights(
      static_cast<std::size_t>(std::max(1, options.workload.tenants)), 1);
  for (std::size_t t = 0;
       t < weights.size() && t < options.tenant_weights.size(); ++t) {
    weights[t] = options.tenant_weights[t];
  }

  StreamWorkloadGenerator generator(options.workload);
  StreamReport report;
  std::vector<StreamRequestRecord> records;
  std::vector<QueueEntry> queue;  // effective-arrival order
  std::vector<std::uint8_t> dead(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> digest_chain;
  util::SimTime stream_clock = 0;

  // Backpressure: producers block while the queue sits at/above the high
  // watermark and resume (at the stream clock of the unblocking event)
  // once it drops below the low watermark.
  bool producer_blocked = false;
  util::SimTime producer_release_time = 0;

  // Deficit round-robin cursor for kTenantFair, persistent across batches.
  std::int32_t drr_tenant = static_cast<std::int32_t>(weights.size()) - 1;
  std::int32_t drr_credit = 0;

  // Requests are generated with sequential ids, so the record table is
  // populated exactly once per request, at pull time.
  auto record_for = [&](const StreamRequest& req) -> StreamRequestRecord& {
    return records[static_cast<std::size_t>(req.id)];
  };

  auto maybe_unblock = [&]() {
    if (producer_blocked &&
        static_cast<std::int32_t>(queue.size()) <
            options.queue_low_watermark) {
      producer_blocked = false;
      producer_release_time = stream_clock;
      ++report.backpressure_events;
    }
  };

  // Pulls every arrival with nominal time <= stream_clock, honouring the
  // high watermark. Deferred arrivals keep their nominal arrival in the
  // record; the deferral (release - nominal) is charged to backpressure.
  auto pull_arrivals = [&]() {
    while (!generator.done() && !producer_blocked) {
      if (options.queue_high_watermark > 0 &&
          static_cast<std::int32_t>(queue.size()) >=
              options.queue_high_watermark) {
        producer_blocked = true;
        break;
      }
      const util::SimTime nominal = generator.peek_arrival();
      const util::SimTime effective = std::max(nominal, producer_release_time);
      if (effective > stream_clock) break;
      StreamRequest req = generator.next();
      StreamRequestRecord rec;
      rec.id = req.id;
      rec.tenant = req.tenant;
      rec.priority = req.priority;
      rec.arrival = req.arrival;
      rec.edges_total = req.edges();
      records.push_back(rec);
      if (effective > nominal) report.backpressure_ns += effective - nominal;
      queue.push_back(QueueEntry{std::move(req), effective});
    }
  };

  auto shed = [&](std::size_t queue_index, RequestOutcome reason) {
    QueueEntry entry = std::move(queue[queue_index]);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(queue_index));
    StreamRequestRecord& rec = record_for(entry.req);
    rec.outcome = reason;
    rec.completed_at = stream_clock;
    report.shed_log.push_back(StreamShedEntry{entry.req.id, entry.req.tenant,
                                              entry.req.priority, stream_clock,
                                              reason});
    ++report.shed_count;
  };

  // Overload shedding: above shed_watermark, trim back to the high
  // watermark — lowest priority first, youngest (latest arrival, then
  // largest id) first within a priority. Retry requests (attempt > 0)
  // were already admitted once and are exempt: their terminal state must
  // come from delivery accounting, never from the trimmer.
  auto shed_overload = [&]() {
    if (options.shed_watermark <= 0) return;
    if (static_cast<std::int32_t>(queue.size()) <= options.shed_watermark) {
      return;
    }
    const std::int32_t target = options.queue_high_watermark > 0
                                    ? options.queue_high_watermark
                                    : options.shed_watermark;
    while (static_cast<std::int32_t>(queue.size()) > target) {
      std::ptrdiff_t victim = -1;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        if (queue[i].req.attempt > 0) continue;
        if (victim < 0) {
          victim = static_cast<std::ptrdiff_t>(i);
          continue;
        }
        const StreamRequest& a = queue[static_cast<std::size_t>(victim)].req;
        const StreamRequest& b = queue[i].req;
        if (b.priority < a.priority ||
            (b.priority == a.priority &&
             (b.arrival > a.arrival ||
              (b.arrival == a.arrival && b.id > a.id)))) {
          victim = static_cast<std::ptrdiff_t>(i);
        }
      }
      if (victim < 0) return;  // only retries queued: nothing sheddable
      shed(static_cast<std::size_t>(victim), RequestOutcome::kShedOverload);
    }
  };

  // Expired deadlines shed at admission time (fresh requests only).
  auto shed_expired = [&]() {
    if (!options.shed_expired) return;
    for (std::size_t i = 0; i < queue.size();) {
      const StreamRequest& req = queue[i].req;
      if (req.attempt == 0 && req.deadline != util::kTimeNever &&
          req.deadline < stream_clock) {
        shed(i, RequestOutcome::kShedDeadline);
      } else {
        ++i;
      }
    }
  };

  // Picks the next queue index to admit under `policy`. Returns the
  // index, or -1 for an empty queue. kTenantFair commits its cursor via
  // the out-parameters only when the caller actually admits.
  auto pick_next = [&](std::int32_t& picked_tenant,
                       std::int32_t& picked_credit) -> std::ptrdiff_t {
    if (queue.empty()) return -1;
    switch (options.policy) {
      case BatchPolicy::kFifo:
        return 0;
      case BatchPolicy::kDeadline: {
        std::size_t best = 0;
        for (std::size_t i = 1; i < queue.size(); ++i) {
          const StreamRequest& a = queue[best].req;
          const StreamRequest& b = queue[i].req;
          if (b.deadline < a.deadline ||
              (b.deadline == a.deadline && b.id < a.id)) {
            best = i;
          }
        }
        return static_cast<std::ptrdiff_t>(best);
      }
      case BatchPolicy::kTenantFair: {
        const std::int32_t num_tenants =
            static_cast<std::int32_t>(weights.size());
        std::int32_t tenant = drr_tenant;
        std::int32_t credit = drr_credit;
        for (std::int32_t scanned = 0; scanned <= num_tenants;) {
          if (credit <= 0) {
            tenant = (tenant + 1) % num_tenants;
            credit = weights[static_cast<std::size_t>(tenant)];
            ++scanned;
            continue;
          }
          std::ptrdiff_t oldest = -1;
          for (std::size_t i = 0; i < queue.size(); ++i) {
            // Out-of-range tenants (possible only from hand-built
            // requests) round-robin as tenant (t mod num_tenants).
            if (queue[i].req.tenant % num_tenants == tenant) {
              oldest = static_cast<std::ptrdiff_t>(i);
              break;
            }
          }
          if (oldest >= 0) {
            picked_tenant = tenant;
            picked_credit = credit;
            return oldest;
          }
          credit = 0;  // tenant has nothing queued: forfeit the turn
        }
        return 0;  // unreachable with a nonempty queue
      }
    }
    return 0;
  };

  // One admitted request inside a batch: its slice of the combined
  // schedule is steps [first_step, first_step + num_steps).
  struct BatchSlot {
    StreamRequest req;
    std::int32_t first_step = 0;
    std::int32_t num_steps = 0;
  };

  bool stopped = false;
  std::int64_t batch_index = 0;
  while (!stopped) {
    pull_arrivals();
    if (queue.empty()) {
      if (generator.done()) break;
      // Idle: jump the stream clock to the next arrival.
      stream_clock = std::max(stream_clock, generator.peek_arrival());
      pull_arrivals();
    }
    shed_overload();
    shed_expired();
    maybe_unblock();
    if (queue.empty()) continue;

    // --- admission --------------------------------------------------------
    std::vector<BatchSlot> batch;
    CommSchedule combined(n);
    std::int64_t batch_edges = 0;
    while (!queue.empty() &&
           static_cast<std::int32_t>(batch.size()) <
               options.max_batch_requests) {
      std::int32_t picked_tenant = 0;
      std::int32_t picked_credit = 0;
      const std::ptrdiff_t idx = pick_next(picked_tenant, picked_credit);
      if (idx < 0) break;
      StreamRequest& req = queue[static_cast<std::size_t>(idx)].req;
      StreamRequestRecord& rec = record_for(req);

      // Repair: drop edges addressed to excised nodes before admission.
      const std::int64_t repaired = strip_excised_edges(req.pattern, dead);
      rec.edges_repaired += repaired;
      if (req.pattern.num_messages() == 0) {
        // Nothing left to deliver: terminal immediately (repaired away,
        // or an empty pattern to begin with).
        rec.outcome = rec.edges_repaired > 0 ? RequestOutcome::kRepaired
                                             : RequestOutcome::kCompleted;
        if (rec.attempts == 0) {
          rec.admitted_at = stream_clock;
          rec.latency_queue = stream_clock - rec.arrival;
          ++report.requests_admitted;
        }
        rec.completed_at = stream_clock;
        rec.latency_e2e = rec.completed_at - rec.arrival;
        queue.erase(queue.begin() + idx);
        if (options.policy == BatchPolicy::kTenantFair) {
          drr_tenant = picked_tenant;
          drr_credit = picked_credit - 1;
        }
        continue;
      }
      // Edge budget: stop once the running total would exceed the cap;
      // the first request always goes (progress guarantee).
      if (!batch.empty() &&
          batch_edges + req.edges() > options.max_inflight_edges) {
        break;
      }
      if (options.policy == BatchPolicy::kTenantFair) {
        drr_tenant = picked_tenant;
        drr_credit = picked_credit - 1;
      }
      BatchSlot slot;
      slot.req = std::move(req);
      queue.erase(queue.begin() + idx);
      if (rec.attempts == 0) {
        rec.admitted_at = stream_clock;
        rec.latency_queue = stream_clock - rec.arrival;
        ++report.requests_admitted;
      }
      ++rec.attempts;
      batch_edges += slot.req.edges();

      // Concatenate this request's schedule onto the combined one.
      CommSchedule sched = build_schedule(slot.req.scheduler, slot.req.pattern);
      sched.trim_trailing_empty_steps();
      slot.first_step = combined.num_steps();
      slot.num_steps = sched.num_steps();
      for (std::int32_t step = 0; step < sched.num_steps(); ++step) {
        const std::int32_t out = combined.add_step();
        for (NodeId p = 0; p < n; ++p) {
          for (const Op& op : sched.ops(step, p)) {
            if (op.kind == Op::Kind::Send) {
              combined.add_send(out, p, op.peer, op.send_bytes);
            } else if (op.kind == Op::Kind::Exchange && p < op.peer) {
              combined.add_exchange(out, p, op.peer, op.send_bytes,
                                    op.recv_bytes);
            }
          }
        }
      }
      batch.push_back(std::move(slot));
    }
    maybe_unblock();
    if (batch.empty()) continue;

    // --- execution --------------------------------------------------------
    const sim::FaultPlan plan =
        rebase_fault_script(options.fault_script, stream_clock, batch_index);
    if (plan.empty()) {
      machine.clear_fault_plan();
    } else {
      machine.set_fault_plan(plan);
    }
    ResilientOptions ropts = options.resilient;
    ropts.measure_fault_free_baseline = false;
    sim::TraceValidator validator(n);
    if (options.validate) {
      ropts.trace = [&](const sim::TraceEvent& e) { validator.on_event(e); };
    }
    const ResilientRunReport rep =
        run_resilient_schedule(machine, combined, ropts);
    const util::SimTime batch_end = stream_clock + rep.makespan;

    if (options.validate) {
      for (const std::string& v : validator.finalize(&rep.run)) {
        report.violations.push_back("batch " + std::to_string(batch_index) +
                                    ": " + v);
      }
    }

    // --- accounting -------------------------------------------------------
    report.retries += rep.retries;
    report.recv_timeouts += rep.recv_timeouts;
    ++report.batches;

    bool grew_dead_set = false;
    for (const NodeId d : rep.dead_nodes) {
      if (!dead[static_cast<std::size_t>(d)]) {
        dead[static_cast<std::size_t>(d)] = 1;
        grew_dead_set = true;
      }
    }
    if (grew_dead_set) ++report.excision_events;

    // Fold lost edges back into per-request accounting. Edges lost to a
    // node that is now excised are charged as repairs (the peer is
    // gone); losses to live peers become a retry request, or terminal
    // partial loss once the retry budget is spent.
    std::size_t lost_cursor = 0;
    for (BatchSlot& slot : batch) {
      StreamRequestRecord& rec = record_for(slot.req);
      rec.latency_service += rep.makespan;
      CommPattern retry_pattern(n);
      std::int64_t slot_lost = 0;
      while (lost_cursor < rep.lost_edges.size() &&
             rep.lost_edges[lost_cursor].step <
                 slot.first_step + slot.num_steps) {
        const LostEdge& edge = rep.lost_edges[lost_cursor];
        ++lost_cursor;
        if (edge.step < slot.first_step) continue;  // earlier, unmatched
        ++slot_lost;
        if (dead[static_cast<std::size_t>(edge.src)] ||
            dead[static_cast<std::size_t>(edge.dst)]) {
          ++rec.edges_repaired;
        } else if (slot.req.attempt + 1 < options.max_request_attempts) {
          retry_pattern.set(edge.src, edge.dst, edge.bytes);
        } else {
          ++rec.edges_lost;
        }
      }
      rec.edges_delivered += slot.req.edges() - slot_lost;
      if (retry_pattern.num_messages() > 0) {
        StreamRequest retry;
        retry.id = slot.req.id;
        retry.tenant = slot.req.tenant;
        retry.priority = slot.req.priority;
        retry.arrival = slot.req.arrival;
        retry.deadline = slot.req.deadline;
        retry.scheduler = slot.req.scheduler;
        retry.pattern = std::move(retry_pattern);
        retry.attempt = slot.req.attempt + 1;
        queue.push_back(QueueEntry{std::move(retry), batch_end});
        ++report.request_retries;
      } else {
        rec.completed_at = batch_end;
        rec.latency_e2e = rec.completed_at - rec.arrival;
        rec.outcome = rec.edges_lost > 0 ? RequestOutcome::kPartialLoss
                      : rec.edges_repaired > 0 ? RequestOutcome::kRepaired
                                               : RequestOutcome::kCompleted;
      }
    }
    stream_clock = batch_end;

    // --- checkpoint / resume verification --------------------------------
    digest::Fnv h;
    h.mix(static_cast<std::uint64_t>(batch_index));
    h.mix_string(rep.to_json().dump());
    h.mix(static_cast<std::uint64_t>(stream_clock));
    h.mix(static_cast<std::uint64_t>(generator.produced()));
    h.mix(queue.size());
    for (const QueueEntry& entry : queue) {
      h.mix(static_cast<std::uint64_t>(entry.req.id));
      h.mix(static_cast<std::uint64_t>(entry.req.attempt));
    }
    for (std::int32_t node = 0; node < n; ++node) {
      h.mix(dead[static_cast<std::size_t>(node)]);
    }
    digest_chain.push_back(h.value());
    if (resume &&
        batch_index < resume->batches_completed) {
      CM5_CHECK_MSG(
          digest_chain.back() ==
              resume->batch_digests[static_cast<std::size_t>(batch_index)],
          "stream resume replay diverged from checkpoint at batch " +
              std::to_string(batch_index));
    }

    if (options.checkpoint_sink) {
      StreamCheckpoint cp;
      cp.config_digest = config_digest;
      cp.batches_completed = batch_index + 1;
      cp.stream_clock = stream_clock;
      cp.requests_generated = generator.produced();
      for (const QueueEntry& entry : queue) {
        cp.queue_ids.push_back(entry.req.id);
      }
      for (std::int32_t node = 0; node < n; ++node) {
        if (dead[static_cast<std::size_t>(node)]) {
          cp.excised_nodes.push_back(node);
        }
      }
      cp.batch_digests = digest_chain;
      options.checkpoint_sink(cp);
    }

    ++batch_index;
    if (options.stop_after_batch >= 0 &&
        batch_index >= options.stop_after_batch) {
      stopped = true;
    }
  }
  machine.clear_fault_plan();
  if (resume) {
    CM5_CHECK_MSG(batch_index >= resume->batches_completed,
                  "stream resume checkpoint is ahead of the replayed run");
  }

  // --- final report -------------------------------------------------------
  report.requests_generated = generator.produced();
  report.stream_makespan = stream_clock;
  for (std::int32_t node = 0; node < n; ++node) {
    if (dead[static_cast<std::size_t>(node)]) {
      report.excised_nodes.push_back(node);
    }
  }
  std::vector<util::SimDuration> queue_samples;
  std::vector<util::SimDuration> service_samples;
  std::vector<util::SimDuration> e2e_samples;
  for (const StreamRequestRecord& rec : records) {
    switch (rec.outcome) {
      case RequestOutcome::kCompleted:
      case RequestOutcome::kRepaired:
        ++report.requests_completed;
        break;
      case RequestOutcome::kPartialLoss:
        ++report.requests_partial;
        break;
      case RequestOutcome::kShedOverload:
      case RequestOutcome::kShedDeadline:
        ++report.requests_shed;
        break;
      case RequestOutcome::kPending:
        break;
    }
    // A request counts as admitted if it rode a batch, or was finalized
    // at admission after repair emptied its pattern (attempts stays 0).
    const bool admitted = rec.attempts > 0 ||
                          rec.outcome == RequestOutcome::kCompleted ||
                          rec.outcome == RequestOutcome::kRepaired;
    if (admitted) {
      report.edges_total += rec.edges_total;
      report.edges_delivered += rec.edges_delivered;
      report.edges_repaired += rec.edges_repaired;
      report.edges_lost += rec.edges_lost;
      if (rec.outcome != RequestOutcome::kPending) {
        queue_samples.push_back(rec.latency_queue);
        service_samples.push_back(rec.latency_service);
        e2e_samples.push_back(rec.latency_e2e);
        // Delivery invariant: every edge of an admitted request must be
        // accounted for — delivered, repaired, or lost-with-log.
        if (rec.edges_delivered + rec.edges_repaired + rec.edges_lost !=
            rec.edges_total) {
          report.violations.push_back(
              "request " + std::to_string(rec.id) +
              ": delivery accounting leak (total " +
              std::to_string(rec.edges_total) + " != delivered " +
              std::to_string(rec.edges_delivered) + " + repaired " +
              std::to_string(rec.edges_repaired) + " + lost " +
              std::to_string(rec.edges_lost) + ")");
        }
      }
    }
  }
  report.latency_queue = sim::LatencySummary::from_samples(queue_samples);
  report.latency_service = sim::LatencySummary::from_samples(service_samples);
  report.latency_e2e = sim::LatencySummary::from_samples(e2e_samples);
  report.requests = std::move(records);
  return report;
}

// --------------------------------------------------------------------------
// Report rendering
// --------------------------------------------------------------------------

std::string StreamReport::to_string() const {
  std::ostringstream out;
  out << "stream: " << requests_generated << " generated, "
      << requests_admitted << " admitted, " << requests_completed
      << " completed, " << requests_shed << " shed, " << requests_partial
      << " partial over " << batches << " batches\n";
  out << "  edges: " << edges_delivered << "/" << edges_total
      << " delivered, " << edges_repaired << " repaired, " << edges_lost
      << " lost; " << retries << " retries, " << request_retries
      << " request retries\n";
  out << "  excised:";
  if (excised_nodes.empty()) {
    out << " none";
  } else {
    for (const NodeId node : excised_nodes) out << " " << node;
  }
  out << " (" << excision_events << " events)\n";
  out << "  backpressure: " << backpressure_events << " events, "
      << backpressure_ns << " ns deferred; shed log " << shed_count
      << " entries\n";
  out << "  latency e2e p50/p95/p99: " << latency_e2e.p50 << "/"
      << latency_e2e.p95 << "/" << latency_e2e.p99 << " ns, makespan "
      << stream_makespan << " ns\n";
  if (!violations.empty()) {
    out << "  VIOLATIONS: " << violations.size() << "\n";
  }
  return out.str();
}

util::json::Value StreamReport::to_json(bool full) const {
  using util::json::Value;
  Value root = Value::object();
  root["requests_generated"] = requests_generated;
  root["requests_admitted"] = requests_admitted;
  root["requests_completed"] = requests_completed;
  root["requests_shed"] = requests_shed;
  root["requests_partial"] = requests_partial;
  root["batches"] = batches;
  root["edges_total"] = edges_total;
  root["edges_delivered"] = edges_delivered;
  root["edges_repaired"] = edges_repaired;
  root["edges_lost"] = edges_lost;
  root["retries"] = retries;
  root["recv_timeouts"] = recv_timeouts;
  root["request_retries"] = request_retries;
  root["excised_nodes"] = digest::int_array(excised_nodes);
  root["excision_events"] = excision_events;
  root["backpressure_events"] = backpressure_events;
  root["backpressure_ns"] = backpressure_ns;
  root["shed_count"] = shed_count;
  Value shed = Value::array();
  for (const StreamShedEntry& entry : shed_log) {
    Value row = Value::object();
    row["id"] = entry.id;
    row["tenant"] = entry.tenant;
    row["priority"] = entry.priority;
    row["time_ns"] = entry.time;
    row["reason"] = request_outcome_name(entry.reason);
    shed.push_back(std::move(row));
  }
  root["shed_log"] = std::move(shed);
  root["latency_queue"] = latency_queue.to_json();
  root["latency_service"] = latency_service.to_json();
  root["latency_e2e"] = latency_e2e.to_json();
  root["stream_makespan_ns"] = stream_makespan;
  Value viols = Value::array();
  for (const std::string& v : violations) viols.push_back(v);
  root["violations"] = std::move(viols);
  if (full) {
    Value rows = Value::array();
    for (const StreamRequestRecord& rec : requests) {
      Value row = Value::object();
      row["id"] = rec.id;
      row["tenant"] = rec.tenant;
      row["priority"] = rec.priority;
      row["outcome"] = request_outcome_name(rec.outcome);
      row["arrival_ns"] = rec.arrival;
      row["admitted_at_ns"] = rec.admitted_at;
      row["completed_at_ns"] = rec.completed_at;
      row["latency_e2e_ns"] = rec.latency_e2e;
      row["latency_queue_ns"] = rec.latency_queue;
      row["latency_service_ns"] = rec.latency_service;
      row["edges_total"] = rec.edges_total;
      row["edges_delivered"] = rec.edges_delivered;
      row["edges_repaired"] = rec.edges_repaired;
      row["edges_lost"] = rec.edges_lost;
      row["attempts"] = rec.attempts;
      rows.push_back(std::move(row));
    }
    root["requests"] = std::move(rows);
  }
  return root;
}

// --------------------------------------------------------------------------
// Reference scenario
// --------------------------------------------------------------------------

StreamOptions make_reference_stream_options(std::int32_t nodes,
                                            std::int64_t requests,
                                            std::uint64_t seed) {
  StreamOptions options;
  options.workload.nodes = nodes;
  options.workload.num_requests = requests;
  options.workload.tenants = 4;
  options.workload.seed = seed;
  options.policy = BatchPolicy::kTenantFair;
  options.tenant_weights = {2, 1, 1, 1};
  options.max_batch_requests = 6;
  options.max_inflight_edges = 4 * static_cast<std::int64_t>(nodes) * nodes;
  options.queue_high_watermark = 32;
  options.queue_low_watermark = 16;
  options.shed_watermark = 64;
  options.max_request_attempts = 2;

  // Mid-stream fault script, in stream time: a burst-loss spell from the
  // start, one fail-stop death a quarter through the nominal arrival
  // horizon, and a gray slowdown in the middle third.
  sim::FaultPlan& plan = options.fault_script;
  plan.seed = seed ^ 0x5eedf00dULL;
  plan.burst.p_enter = 0.02;
  plan.burst.p_exit = 0.3;
  plan.burst.loss_good = 0.0;
  plan.burst.loss_bad = 0.7;
  const util::SimTime horizon =
      options.workload.mean_gap * std::max<std::int64_t>(requests, 1);
  plan.deaths.push_back({nodes - 1, horizon / 4});
  sim::FaultPlan::NodeSlowdown slow;
  slow.node = 1 % nodes;
  slow.start = horizon / 3;
  slow.end = (2 * horizon) / 3;
  slow.factor = 4.0;
  plan.slowdowns.push_back(slow);
  return options;
}

}  // namespace cm5::sched
