#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <utility>

#include "cm5/fft/fft1d.hpp"
#include "cm5/fft/fft2d.hpp"
#include "cm5/machine/machine.hpp"
#include "cm5/mesh/generate.hpp"
#include "cm5/mesh/halo.hpp"
#include "cm5/mesh/partition.hpp"
#include "cm5/patterns/synthetic.hpp"
#include "cm5/sched/builders.hpp"
#include "cm5/sched/complete_exchange.hpp"
#include "cm5/sched/executor.hpp"
#include "cm5/sched/stream.hpp"
#include "cm5/sim/metrics.hpp"
#include "cm5/sim/trace.hpp"
#include "cm5/util/rng.hpp"

namespace cm5bench {

using cm5::fft::Complex;
using cm5::machine::Cm5Machine;
using cm5::machine::MachineParams;
using cm5::machine::Node;
using cm5::machine::Program;
using cm5::sched::ExchangeAlgorithm;
using cm5::sched::Scheduler;

void Counters::add_run(const cm5::sim::RunResult& result) {
  rate_solves += result.network.rate_solves;
  heap_pops += result.network.heap_pops;
  flows_started += result.network.flows_started;
  flows_completed += result.network.flows_completed;
  context_switches += result.context_switches;
  speculative_grants += result.speculative_grants;
}

void CellOutcome::fail(std::string what) {
  failures.push_back(id + ": " + std::move(what));
  failed_ops = ops;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

/// An input seed for one generator call, derived from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t key) {
  return cm5::util::Rng::forked(seed, key).next_u64();
}

/// FNV-1a over 64-bit words: a fast fingerprint of bulk payload output.
std::uint64_t fnv1a_words(const std::vector<Complex>& values,
                          std::uint64_t h) {
  for (const Complex& v : values) {
    for (const double part : {v.real(), v.imag()}) {
      std::uint64_t word = 0;
      std::memcpy(&word, &part, sizeof word);
      h ^= word;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Lazy process-wide state (the fiber stack pool, allocator arenas) is
/// set up by the first run on a partition.
void run_empty(std::int32_t nprocs) {
  Cm5Machine machine(MachineParams::cm5_defaults(nprocs));
  machine.run([](Node&) {});
}

Cm5Machine construct(std::int32_t nprocs, SpanLog* spans, std::int32_t cell) {
  ScopedSpan span(spans, "machine.construct", cell);
  return Cm5Machine(MachineParams::cm5_defaults(nprocs));
}

/// The production observation sequence: run_traced with a recorder,
/// then analyze and validate the recorded trace.
struct TracedRun {
  cm5::sim::RunResult result;
  cm5::sim::RunMetrics metrics;
  std::vector<std::string> violations;
  std::int64_t events = 0;
};

TracedRun run_traced(Cm5Machine& machine, const Program& program,
                     SpanLog* spans, std::int32_t cell) {
  const std::int32_t nprocs = machine.params().tree.num_nodes;
  cm5::sim::TraceRecorder recorder;
  TracedRun run;
  {
    ScopedSpan span(spans, "machine.run", cell);
    run.result = machine.run_traced(program, recorder.sink());
  }
  {
    ScopedSpan span(spans, "simcore.analyze", cell);
    run.metrics = cm5::sim::analyze(recorder, nprocs, &run.result);
  }
  {
    ScopedSpan span(spans, "simcore.validate", cell);
    run.violations = cm5::sim::validate_trace(recorder, nprocs, &run.result);
  }
  run.events = recorder.total_events();
  return run;
}

CellOutcome outcome_of(std::string id, const TracedRun& run,
                       Counters& counters) {
  CellOutcome out;
  out.id = std::move(id);
  out.makespan = run.result.makespan;
  out.digest = fnv1a(run.metrics.to_json().dump());
  counters.add_run(run.result);
  counters.events += run.events;
  for (const std::string& v : run.violations) out.fail("trace violation: " + v);
  return out;
}

Replay replay_untraced(std::int32_t nprocs, const Program& program) {
  Cm5Machine machine(MachineParams::cm5_defaults(nprocs));
  const std::int64_t t0 = now_ns();
  const cm5::sim::RunResult result = machine.run(program);
  Replay replay;
  replay.run_ns = now_ns() - t0;
  replay.makespan = result.makespan;
  return replay;
}

std::int32_t log2_exact(std::int32_t n) {
  std::int32_t lg = 0;
  while ((1 << lg) < n) ++lg;
  return lg;
}

// --------------------------------------------------------------------------
// exchange-1920 / rex-4096: the paper's regular complete exchanges.
// --------------------------------------------------------------------------

class ExchangeWorkload final : public Workload {
 public:
  ExchangeWorkload(std::vector<std::int32_t> procs,
                   std::vector<ExchangeAlgorithm> algorithms,
                   std::int64_t bytes)
      : procs_(std::move(procs)),
        algorithms_(std::move(algorithms)),
        bytes_(bytes) {}

  void warm_up() override {
    run_empty(*std::max_element(procs_.begin(), procs_.end()));
  }

  /// The only input is the list of cells: an exchange has no payload.
  void setup(SpanLog*) override {
    cells_.clear();
    for (const std::int32_t nprocs : procs_) {
      for (const ExchangeAlgorithm alg : algorithms_) {
        cells_.push_back(Cell{nprocs, alg});
      }
    }
  }

  std::size_t num_cells() const override { return cells_.size(); }

  void run_cell(std::size_t i, SpanLog* spans) override {
    const auto cell = static_cast<std::int32_t>(i);
    Cm5Machine machine = construct(cells_[i].nprocs, spans, cell);
    pending_ = run_traced(machine, program(i), spans, cell);
  }

  CellOutcome finish_cell(std::size_t i, Counters& counters) override {
    const Cell& c = cells_[i];
    CellOutcome out = outcome_of(id(i), pending_, counters);
    // Every node sends exactly lg N combined messages under REX (paper
    // §3.3) and N - 1 under the pairwise-step algorithms.
    const std::int32_t lg = log2_exact(c.nprocs);
    const std::int64_t per_node =
        c.alg == ExchangeAlgorithm::Recursive ? lg : c.nprocs - 1;
    const cm5::sim::RunResult& r = pending_.result;
    for (std::size_t node = 0; node < r.node_counters.size(); ++node) {
      if (r.node_counters[node].sends != per_node) {
        out.fail("node " + std::to_string(node) + " sent " +
                 std::to_string(r.node_counters[node].sends) +
                 " messages, expected " + std::to_string(per_node));
        break;
      }
    }
    if (r.network.flows_started != per_node * c.nprocs) {
      out.fail("started " + std::to_string(r.network.flows_started) +
               " flows, expected " + std::to_string(per_node * c.nprocs));
    }
    pending_ = TracedRun{};
    return out;
  }

  Replay replay_cell(std::size_t i) override {
    return replay_untraced(cells_[i].nprocs, program(i));
  }

 private:
  struct Cell {
    std::int32_t nprocs;
    ExchangeAlgorithm alg;
  };

  std::string id(std::size_t i) const {
    return std::string(cm5::sched::exchange_name(cells_[i].alg)) +
           "/procs=" + std::to_string(cells_[i].nprocs);
  }

  Program program(std::size_t i) const {
    const ExchangeAlgorithm alg = cells_[i].alg;
    const std::int64_t bytes = bytes_;
    return [alg, bytes](Node& node) {
      cm5::sched::complete_exchange(node, alg, bytes);
    };
  }

  std::vector<std::int32_t> procs_;
  std::vector<ExchangeAlgorithm> algorithms_;
  std::int64_t bytes_;
  std::vector<Cell> cells_;
  TracedRun pending_;
};

// --------------------------------------------------------------------------
// irregular-sweep: Table 11 grid x pattern seeds, plus Table 12 meshes.
// --------------------------------------------------------------------------

class IrregularWorkload final : public Workload {
 public:
  IrregularWorkload(std::uint64_t seed, bool smoke)
      : seed_(seed),
        pattern_seeds_(smoke ? 2 : 64),
        mesh_vertices_(smoke ? std::vector<std::int32_t>{545}
                             : std::vector<std::int32_t>{16384, 545, 2048,
                                                         3072, 9216}) {}

  void warm_up() override { run_empty(kNodes); }

  void setup(SpanLog* spans) override {
    patterns_.clear();
    labels_.clear();
    const double densities[] = {0.10, 0.25, 0.50, 0.75};
    const std::int64_t sizes[] = {256, 512};
    std::uint64_t key = 0;
    for (const double density : densities) {
      for (const std::int64_t bytes : sizes) {
        for (std::int32_t k = 0; k < pattern_seeds_; ++k) {
          ScopedSpan span(spans, "patterns.gen");
          patterns_.push_back(cm5::patterns::exact_density(
              kNodes, density, bytes, derive_seed(seed_, key++)));
          labels_.push_back(
              "density=" + std::to_string(std::lround(density * 100)) +
              "/bytes=" + std::to_string(bytes) + "/k=" + std::to_string(k));
        }
      }
    }
    // Table 12: CG halo (8 B per shared vertex) on the 16K mesh, Euler
    // halos (32 B: four conserved variables) on the others.
    for (const std::int32_t vertices : mesh_vertices_) {
      cm5::mesh::TriMesh mesh = [&] {
        ScopedSpan span(spans, "mesh.generate");
        return cm5::mesh::airfoil_with_target(vertices,
                                              derive_seed(seed_, key++));
      }();
      const std::vector<cm5::mesh::PartId> part = [&] {
        ScopedSpan span(spans, "mesh.partition");
        return cm5::mesh::rcb_vertex_partition(mesh, kNodes);
      }();
      ScopedSpan span(spans, "mesh.halo");
      const std::int64_t bytes_per_entity = vertices == 16384 ? 8 : 32;
      patterns_.push_back(cm5::mesh::build_vertex_halo(mesh, part, kNodes)
                              .pattern(bytes_per_entity));
      labels_.push_back("mesh=" + std::to_string(vertices));
    }
  }

  std::size_t num_cells() const override {
    return patterns_.size() * std::size(kSchedulers);
  }

  void run_cell(std::size_t i, SpanLog* spans) override {
    const auto cell = static_cast<std::int32_t>(i);
    Cm5Machine machine = construct(kNodes, spans, cell);
    cm5::sched::CommSchedule schedule = [&] {
      ScopedSpan span(spans, "sched.build", cell);
      return cm5::sched::build_schedule(scheduler(i), pattern(i));
    }();
    steps_ = schedule.num_steps();
    pending_ = run_traced(machine, program(schedule), spans, cell);
  }

  CellOutcome finish_cell(std::size_t i, Counters& counters) override {
    CellOutcome out = outcome_of(
        std::string(cm5::sched::scheduler_name(scheduler(i))) + "/" +
            labels_[i / std::size(kSchedulers)],
        pending_, counters);
    counters.steps += steps_;
    pending_ = TracedRun{};
    return out;
  }

  Replay replay_cell(std::size_t i) override {
    const cm5::sched::CommSchedule schedule =
        cm5::sched::build_schedule(scheduler(i), pattern(i));
    return replay_untraced(kNodes, program(schedule));
  }

 private:
  static constexpr std::int32_t kNodes = 32;
  static constexpr Scheduler kSchedulers[] = {
      Scheduler::Linear, Scheduler::Pairwise, Scheduler::Balanced,
      Scheduler::Greedy};

  Scheduler scheduler(std::size_t i) const {
    return kSchedulers[i % std::size(kSchedulers)];
  }
  const cm5::sched::CommPattern& pattern(std::size_t i) const {
    return patterns_[i / std::size(kSchedulers)];
  }

  /// Step-synchronized execution, the paper's irregular runtime (§4).
  static Program program(const cm5::sched::CommSchedule& schedule) {
    cm5::sched::ExecutorOptions options;
    options.barrier_per_step = true;
    return [&schedule, options](Node& node) {
      cm5::sched::execute_schedule(node, schedule, options);
    };
  }

  std::uint64_t seed_;
  std::int32_t pattern_seeds_;
  std::vector<std::int32_t> mesh_vertices_;
  std::vector<cm5::sched::CommPattern> patterns_;
  std::vector<std::string> labels_;
  TracedRun pending_;
  std::int32_t steps_ = 0;
};

// --------------------------------------------------------------------------
// fft2d-data: the distributed 2-D FFT on real payloads.
// --------------------------------------------------------------------------

class FftWorkload final : public Workload {
 public:
  FftWorkload(std::uint64_t seed, bool smoke)
      : seed_(seed),
        sizes_(smoke ? std::vector<std::int32_t>{256}
                     : std::vector<std::int32_t>{1024, 2048}),
        output_hashes_(num_cells(), 0) {}

  void warm_up() override { run_empty(kNodes); }

  /// Refills the input arrays in place: a repeated set-up then times the
  /// generation, not whether the allocator hands back fresh pages.
  void setup(SpanLog* spans) override {
    inputs_.resize(sizes_.size());
    for (std::size_t k = 0; k < sizes_.size(); ++k) {
      ScopedSpan span(spans, "fft.input");
      const auto n = static_cast<std::size_t>(sizes_[k]);
      cm5::util::Rng rng(derive_seed(seed_, n));
      inputs_[k].resize(n * n);
      for (Complex& v : inputs_[k]) {
        const double re = 2.0 * rng.next_double() - 1.0;
        v = Complex(re, 2.0 * rng.next_double() - 1.0);
      }
    }
  }

  std::size_t num_cells() const override {
    return sizes_.size() * std::size(kAlgorithms);
  }

  /// The transform runs in place, so every run needs a fresh copy of the
  /// input in the node slabs.
  void prepare_cell(std::size_t i) override { scatter_input(i); }

  void run_cell(std::size_t i, SpanLog* spans) override {
    const auto cell = static_cast<std::int32_t>(i);
    Cm5Machine machine = construct(kNodes, spans, cell);
    pending_ = run_traced(machine, program(i), spans, cell);
  }

  CellOutcome finish_cell(std::size_t i, Counters& counters) override {
    CellOutcome out = outcome_of(id(i), pending_, counters);
    // Payload output must repeat bit for bit across passes.
    const std::uint64_t hash = output_hash();
    if (output_hashes_[i] == 0) {
      output_hashes_[i] = hash;
    } else if (output_hashes_[i] != hash) {
      out.fail("payload output differs from the first pass");
    }
    slabs_.clear();
    pending_ = TracedRun{};
    return out;
  }

  /// The replay also checks the payload result against the sequential
  /// reference transform.
  Replay replay_cell(std::size_t i) override {
    scatter_input(i);
    Replay replay = replay_untraced(kNodes, program(i));
    if (output_hash() != output_hashes_[i]) {
      replay.failures.push_back(id(i) + ": replay payload differs from the pass");
    }
    const double err = relative_error(i);
    if (!(err <= 1e-9)) {
      replay.failures.push_back(id(i) + ": output off the fft2d_inplace "
                                "reference by relative " +
                                std::to_string(err));
    }
    slabs_.clear();
    return replay;
  }

  /// fft2d_timed with the same n and algorithm charges the same simulated
  /// compute and moves the same bytes with phantom payloads (REX's
  /// combining charges differ by well under 1 %): the difference in host
  /// time is node-program math plus the payload path.
  std::int64_t twin_run_ns(std::size_t i) override {
    const std::int32_t n = size(i);
    const ExchangeAlgorithm alg = algorithm(i);
    Cm5Machine machine(MachineParams::cm5_defaults(kNodes));
    cm5::sim::TraceRecorder recorder;
    const std::int64_t t0 = now_ns();
    machine.run_traced(
        [alg, n](Node& node) { cm5::fft::fft2d_timed(node, alg, n); },
        recorder.sink());
    return now_ns() - t0;
  }

 private:
  static constexpr std::int32_t kNodes = 32;
  static constexpr ExchangeAlgorithm kAlgorithms[] = {
      ExchangeAlgorithm::Pairwise, ExchangeAlgorithm::Recursive,
      ExchangeAlgorithm::Balanced};

  std::int32_t size(std::size_t i) const {
    return sizes_[i / std::size(kAlgorithms)];
  }
  ExchangeAlgorithm algorithm(std::size_t i) const {
    return kAlgorithms[i % std::size(kAlgorithms)];
  }
  std::string id(std::size_t i) const {
    return std::string(cm5::sched::exchange_name(algorithm(i))) +
           "/n=" + std::to_string(size(i));
  }

  /// Processor p owns rows [p*R, (p+1)*R) of the input (R = n / P).
  void scatter_input(std::size_t i) {
    const std::vector<Complex>& input = inputs_[i / std::size(kAlgorithms)];
    const std::size_t slab = input.size() / kNodes;
    slabs_.assign(kNodes, {});
    for (std::size_t p = 0; p < kNodes; ++p) {
      const auto first = input.begin() + static_cast<std::ptrdiff_t>(p * slab);
      slabs_[p].assign(first, first + static_cast<std::ptrdiff_t>(slab));
    }
  }

  Program program(std::size_t i) {
    const std::int32_t n = size(i);
    const ExchangeAlgorithm alg = algorithm(i);
    return [this, alg, n](Node& node) {
      cm5::fft::fft2d_distributed(
          node, alg, n, slabs_[static_cast<std::size_t>(node.self())]);
    };
  }

  std::uint64_t output_hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::vector<Complex>& slab : slabs_) h = fnv1a_words(slab, h);
    return h;
  }

  /// max |out - ref| / max |ref|. The distributed result is transposed:
  /// element (r, c) sits on processor c / R, local row c mod R, slot r.
  double relative_error(std::size_t i) {
    const std::int32_t n = size(i);
    std::vector<Complex>& ref = references_[n];
    if (ref.empty()) {
      ref = inputs_[i / std::size(kAlgorithms)];
      cm5::fft::fft2d_inplace(ref, n, n);
    }
    const auto un = static_cast<std::size_t>(n);
    const std::size_t rows = un / kNodes;
    double max_diff = 0.0;
    double max_ref = 0.0;
    for (std::size_t r = 0; r < un; ++r) {
      for (std::size_t c = 0; c < un; ++c) {
        const Complex want = ref[r * un + c];
        const Complex got = slabs_[c / rows][(c % rows) * un + r];
        max_diff = std::max(max_diff, std::abs(got - want));
        max_ref = std::max(max_ref, std::abs(want));
      }
    }
    return max_ref > 0.0 ? max_diff / max_ref : max_diff;
  }

  std::uint64_t seed_;
  std::vector<std::int32_t> sizes_;
  std::vector<std::vector<Complex>> inputs_;
  std::vector<std::vector<Complex>> slabs_;
  std::vector<std::uint64_t> output_hashes_;
  std::map<std::int32_t, std::vector<Complex>> references_;
  TracedRun pending_;
};

// --------------------------------------------------------------------------
// stream-faulty: the streaming schedule service under the reference
// mid-stream fault script, over several independent streams.
// --------------------------------------------------------------------------

/// One stream's host time follows its seed: its request mix and fault
/// draws swing the work (retries, timeouts, shed requests) by about
/// +-20 % from one seed to the next. Each cell is therefore a separate
/// stream with its own seed, and their sum averages that out.
class StreamWorkload final : public Workload {
 public:
  StreamWorkload(std::uint64_t seed, bool smoke)
      : seed_(seed), streams_(smoke ? 2 : 8), requests_(smoke ? 100 : 250) {}

  /// The lazy set-up of a stream run spans admission, the resilient
  /// executor and per-batch validation, so the warm-up is a short stream
  /// of the same shape rather than an empty program.
  void warm_up() override {
    Cm5Machine machine(MachineParams::cm5_defaults(kNodes));
    cm5::sched::run_stream(machine, cm5::sched::make_reference_stream_options(
                                        kNodes, kWarmUpRequests, 1));
  }

  void setup(SpanLog* spans) override {
    ScopedSpan span(spans, "sched.stream_options");
    options_.clear();
    for (std::int32_t k = 0; k < streams_; ++k) {
      options_.push_back(cm5::sched::make_reference_stream_options(
          kNodes, requests_, derive_seed(seed_, static_cast<std::uint64_t>(k))));
      options_.back().policy = cm5::sched::BatchPolicy::kTenantFair;
    }
  }

  std::size_t num_cells() const override {
    return static_cast<std::size_t>(streams_);
  }

  void run_cell(std::size_t i, SpanLog* spans) override {
    const auto cell = static_cast<std::int32_t>(i);
    Cm5Machine machine = construct(kNodes, spans, cell);
    if (spans == nullptr) {
      report_ = cm5::sched::run_stream(machine, options_[i]);
      return;
    }
    // Batch boundaries, read from outside through the checkpoint sink.
    std::vector<std::int64_t> marks;
    cm5::sched::StreamOptions options = options_[i];
    options.checkpoint_sink = [&marks](const cm5::sched::StreamCheckpoint&) {
      marks.push_back(now_ns());
    };
    std::int32_t stream_span = -1;
    {
      ScopedSpan span(spans, "sched.stream", cell);
      stream_span = span.index();
      report_ = cm5::sched::run_stream(machine, options);
    }
    std::int64_t prev =
        spans->spans()[static_cast<std::size_t>(stream_span)].start_ns;
    for (const std::int64_t mark : marks) {
      spans->add("sched.batch", prev, mark, stream_span, cell);
      prev = mark;
    }
  }

  CellOutcome finish_cell(std::size_t i, Counters& counters) override {
    const cm5::sched::StreamReport& r = report_;
    CellOutcome out;
    out.id = "stream/" +
             std::string(cm5::sched::batch_policy_name(options_[i].policy)) +
             "/" + std::to_string(kNodes) + "x" + std::to_string(requests_) +
             "/k=" + std::to_string(i);
    out.makespan = r.stream_makespan;
    out.digest = fnv1a(r.to_json(false).dump());
    out.ops = requests_;
    counters.batches += r.batches;
    counters.retries += r.retries;
    counters.recv_timeouts += r.recv_timeouts;
    for (const cm5::sched::StreamRequestRecord& rec : r.requests) {
      if (rec.outcome == cm5::sched::RequestOutcome::kPending) ++out.failed_ops;
    }
    if (out.failed_ops > 0) {
      out.failures.push_back(out.id + ": " + std::to_string(out.failed_ops) +
                             " requests never reached a terminal outcome");
    }
    for (const std::string& v : r.violations) out.fail("violation: " + v);
    if (r.requests_generated != requests_ ||
        static_cast<std::int64_t>(r.requests.size()) != requests_ ||
        r.requests_terminal() != r.requests_generated) {
      out.fail("generated " + std::to_string(r.requests_generated) +
               " requests, terminal " + std::to_string(r.requests_terminal()));
    }
    if (r.edges_delivered + r.edges_repaired + r.edges_lost != r.edges_total) {
      out.fail("edge accounting does not balance");
    }
    if (static_cast<std::int64_t>(r.shed_log.size()) != r.shed_count) {
      out.fail("shed log disagrees with shed count");
    }
    report_ = cm5::sched::StreamReport{};
    return out;
  }

  /// The untraced twin of a stream run is the same stream with
  /// per-batch trace validation off.
  Replay replay_cell(std::size_t i) override {
    Cm5Machine machine(MachineParams::cm5_defaults(kNodes));
    cm5::sched::StreamOptions options = options_[i];
    options.validate = false;
    const std::int64_t t0 = now_ns();
    const cm5::sched::StreamReport r = cm5::sched::run_stream(machine, options);
    Replay replay;
    replay.run_ns = now_ns() - t0;
    replay.makespan = r.stream_makespan;
    return replay;
  }

  const char* unit_span() const override { return "sched.batch"; }
  const char* run_span() const override { return "sched.stream"; }

 private:
  static constexpr std::int32_t kNodes = 32;
  static constexpr std::int64_t kWarmUpRequests = 20;

  std::uint64_t seed_;
  std::int32_t streams_;
  std::int64_t requests_;  ///< per stream
  std::vector<cm5::sched::StreamOptions> options_;  ///< one per cell
  cm5::sched::StreamReport report_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "exchange-1920", "rex-4096", "irregular-sweep", "fft2d-data",
      "stream-faulty"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke) {
  if (name == "exchange-1920") {
    // Paper Fig 8: bandwidth-bound, many concurrent flows (the solver).
    return std::make_unique<ExchangeWorkload>(
        smoke ? std::vector<std::int32_t>{32, 64}
              : std::vector<std::int32_t>{32, 64, 128, 256},
        std::vector<ExchangeAlgorithm>{ExchangeAlgorithm::Pairwise,
                                       ExchangeAlgorithm::Recursive,
                                       ExchangeAlgorithm::Balanced},
        1920);
  }
  if (name == "rex-4096") {
    // One giant REX: few flows, dominated by the event heap.
    return std::make_unique<ExchangeWorkload>(
        std::vector<std::int32_t>{smoke ? 1024 : 4096},
        std::vector<ExchangeAlgorithm>{ExchangeAlgorithm::Recursive}, 64);
  }
  if (name == "irregular-sweep") {
    return std::make_unique<IrregularWorkload>(seed, smoke);
  }
  if (name == "fft2d-data") return std::make_unique<FftWorkload>(seed, smoke);
  if (name == "stream-faulty") {
    return std::make_unique<StreamWorkload>(seed, smoke);
  }
  return nullptr;
}

}  // namespace cm5bench
