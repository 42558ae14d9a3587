/// trace_analyzer — renders, diffs, and gates on the BENCH_*.json
/// metrics files emitted by the bench harnesses (bench/common) and by
/// `pattern_explorer --metrics`.
///
///   trace_analyzer show FILE...        per-row time breakdowns
///   trace_analyzer diff OLD NEW        makespan deltas, matched by row id
///   trace_analyzer check FILE...       exit 1 if any invariant violation
///
/// show and check also accept raw CM5TRACE event files
/// (cm5/sim/trace_file.hpp): the file is *streamed* through the
/// incremental MetricsBuilder / TraceValidator — constant memory in the
/// trace length — so even a giant-N event log can be inspected. A
/// truncated trace file (writer died mid-run) exits 2 with a one-line
/// diagnosis naming the file, like a damaged metrics file.
///
/// `check` is the CI gate: every metrics file carries the
/// sim::validate_trace() verdict for each recorded run, so a nonzero
/// exit means a simulation produced a trace that broke an invariant
/// (time monotonicity, rendezvous matching, byte conservation, or a
/// makespan/counter mismatch against the kernel's own accounting).

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cm5/sim/metrics.hpp"
#include "cm5/sim/trace_file.hpp"
#include "cm5/util/json.hpp"
#include "cm5/util/table.hpp"

namespace {

using cm5::util::TextTable;
using cm5::util::json::Value;

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Flattened view of one metrics-file row (a bench table cell).
struct RowView {
  std::string id;
  std::int64_t makespan_ns = 0;
  const Value* metrics = nullptr;     // summary RunMetrics json, if present
  const Value* violations = nullptr;  // violations array, if present
  const Value* perf = nullptr;        // host-side perf section, if present
};

std::vector<RowView> rows_of(const Value& file) {
  std::vector<RowView> out;
  const Value& rows = file.get("rows", Value());
  if (!rows.is_array()) return out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Value& row = rows.at(i);
    RowView v;
    v.id = row.get("id", Value(std::string("row-") + std::to_string(i)))
               .as_string();
    // Plain measured rows carry makespan/metrics at top level; resilient
    // rows nest a report object instead.
    if (row.contains("makespan_ns")) {
      v.makespan_ns = row.at("makespan_ns").as_int();
    } else if (row.contains("report") &&
               row.at("report").get("report", Value()).is_object()) {
      v.makespan_ns =
          row.at("report").at("report").get("makespan_ns", Value(std::int64_t{0}))
              .as_int();
    }
    if (row.contains("metrics")) {
      v.metrics = &row.at("metrics");
    } else if (row.contains("report") &&
               row.at("report").contains("metrics")) {
      v.metrics = &row.at("report").at("metrics");
    }
    if (row.contains("violations")) v.violations = &row.at("violations");
    if (row.contains("perf")) v.perf = &row.at("perf");
    out.push_back(v);
  }
  return out;
}

std::int64_t time_field(const RowView& row, const char* field) {
  if (row.metrics == nullptr) return 0;
  return row.metrics->get("time_ns", Value())
      .get(field, Value(std::int64_t{0}))
      .as_int();
}

/// A row's perf.flows_refrozen (flows re-frozen by the rate solver), or
/// "-" for rows without one (files predating the counter, non-sim rows).
std::string refrozen_of(const RowView& row) {
  if (row.perf == nullptr || !row.perf->contains("flows_refrozen")) {
    return "-";
  }
  return std::to_string(row.perf->at("flows_refrozen").as_int());
}

/// The execution backend recorded in the metrics-file root ("fibers" or
/// "threads"); "?" for files predating the exec_backend field.
std::string backend_of(const Value& file) {
  return file.get("exec_backend", Value("?")).as_string();
}

/// Loads one metrics file, folding the file name into any I/O or parse
/// failure. check/diff take many files, and the parser's bare
/// "parse error at offset N" does not say which one is missing,
/// truncated, or not JSON at all — main() turns the result into a
/// one-line diagnosis and exit code 2.
Value load_metrics_file(const std::string& path) {
  try {
    return cm5::util::json::read_file(path);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

/// Streams one CM5TRACE file through the incremental analyzer and
/// prints its summary — memory stays O(state) however long the file is.
void show_trace_file(const std::string& path) {
  // First pass reads just the header (and validates structure); the
  // second streams events into the builder sized for nprocs.
  const cm5::sim::TraceFileInfo info =
      cm5::sim::read_trace_file(path, nullptr);
  cm5::sim::MetricsBuilder builder(info.nprocs);
  cm5::sim::read_trace_file(path, &builder);
  const cm5::sim::RunMetrics m = builder.finalize(nullptr);
  std::printf("%s — CM5TRACE v%d, %lld node(s), %lld event(s)\n",
              path.c_str(), info.version,
              static_cast<long long>(info.nprocs),
              static_cast<long long>(info.events));
  std::printf(
      "makespan %.3f ms; %lld message(s) posted, %lld transfer(s) "
      "completed, %lld dropped; %lld global op(s)\n",
      ms(m.makespan), static_cast<long long>(m.messages_posted),
      static_cast<long long>(m.transfers_completed),
      static_cast<long long>(m.transfers_dropped),
      static_cast<long long>(m.global_ops));
  std::printf(
      "time: compute %.3f ms, send wait %.3f ms, recv wait %.3f ms, "
      "barrier %.3f ms\n",
      ms(m.total_compute()), ms(m.total_send_wait()), ms(m.total_recv_wait()),
      ms(m.total_barrier_wait()));
  std::printf("contention: max pending %lld at node %lld; %lld step(s)\n\n",
              static_cast<long long>(m.max_pending),
              static_cast<long long>(m.hot_node),
              static_cast<long long>(m.observed_steps()));
}

int cmd_show(const std::vector<std::string>& files) {
  for (const std::string& path : files) {
    if (cm5::sim::is_trace_file(path)) {
      show_trace_file(path);
      continue;
    }
    const Value file = load_metrics_file(path);
    std::printf("%s — bench '%s'%s [%s backend], %lld invariant violation(s)\n",
                path.c_str(),
                file.get("bench", Value("?")).as_string().c_str(),
                file.get("smoke", Value(false)).as_bool() ? " (smoke)" : "",
                backend_of(file).c_str(),
                static_cast<long long>(
                    file.get("violations_total", Value(std::int64_t{0}))
                        .as_int()));
    if (file.get("perf", Value()).is_object()) {
      const Value& p = file.at("perf");
      std::printf("whole-bench perf: %.1f ms wall on %lld worker thread(s)\n",
                  p.get("total_wall_ms", Value(0.0)).as_double(),
                  static_cast<long long>(
                      p.get("threads", Value(std::int64_t{1})).as_int()));
    }
    TextTable table({"row", "makespan (ms)", "compute", "send wait",
                     "recv wait", "barrier", "steps", "max pending",
                     "wall (ms)", "solves", "refrozen"});
    for (const RowView& row : rows_of(file)) {
      std::string wall = "-", solves = "-";
      if (row.perf != nullptr) {
        wall = TextTable::fmt(
            row.perf->get("wall_ms", Value(0.0)).as_double(), 1);
        solves = std::to_string(
            row.perf->get("rate_solves", Value(std::int64_t{0})).as_int());
      }
      const std::string refrozen = refrozen_of(row);
      if (row.metrics == nullptr) {
        table.add_row({row.id, TextTable::fmt(ms(row.makespan_ns), 3), "-",
                       "-", "-", "-", "-", "-", wall, solves, refrozen});
        continue;
      }
      const Value& m = *row.metrics;
      table.add_row(
          {row.id, TextTable::fmt(ms(row.makespan_ns), 3),
           TextTable::fmt(ms(time_field(row, "compute")), 3),
           TextTable::fmt(ms(time_field(row, "send_wait")), 3),
           TextTable::fmt(ms(time_field(row, "recv_wait")), 3),
           TextTable::fmt(ms(time_field(row, "barrier_wait")), 3),
           std::to_string(
               m.get("steps_observed", Value(std::int64_t{0})).as_int()),
           std::to_string(m.get("contention", Value())
                              .get("max_pending", Value(std::int64_t{0}))
                              .as_int()),
           wall, solves, refrozen});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n");
  }
  return 0;
}

int cmd_diff(const std::string& old_path, const std::string& new_path) {
  const Value old_file = load_metrics_file(old_path);
  const Value new_file = load_metrics_file(new_path);
  // Cross-backend diffs are legitimate (simulated times are backend-
  // invariant; host-side perf fields are not) — name both sides so the
  // reader knows which comparison they are looking at.
  std::printf("old: %s [%s backend]\nnew: %s [%s backend]%s\n",
              old_path.c_str(), backend_of(old_file).c_str(),
              new_path.c_str(), backend_of(new_file).c_str(),
              backend_of(old_file) == backend_of(new_file)
                  ? ""
                  : "  (backends differ: wall/switch fields not comparable)");
  std::map<std::string, RowView> old_rows;
  for (const RowView& row : rows_of(old_file)) old_rows[row.id] = row;

  TextTable table({"row", "old (ms)", "new (ms)", "delta (ms)", "delta %",
                   "refrozen old", "refrozen new"});
  std::size_t matched = 0, regressions = 0;
  for (const RowView& row : rows_of(new_file)) {
    const auto it = old_rows.find(row.id);
    if (it == old_rows.end()) {
      table.add_row({row.id, "(new)", TextTable::fmt(ms(row.makespan_ns), 3),
                     "-", "-", "-", refrozen_of(row)});
      continue;
    }
    ++matched;
    const std::int64_t delta = row.makespan_ns - it->second.makespan_ns;
    if (delta > 0) ++regressions;
    const double pct =
        it->second.makespan_ns == 0
            ? 0.0
            : 100.0 * static_cast<double>(delta) /
                  static_cast<double>(it->second.makespan_ns);
    table.add_row({row.id, TextTable::fmt(ms(it->second.makespan_ns), 3),
                   TextTable::fmt(ms(row.makespan_ns), 3),
                   TextTable::fmt(ms(delta), 3), TextTable::fmt(pct, 2),
                   refrozen_of(it->second), refrozen_of(row)});
    old_rows.erase(it);
  }
  for (const auto& [id, row] : old_rows) {
    table.add_row({id, TextTable::fmt(ms(row.makespan_ns), 3), "(gone)", "-",
                   "-", refrozen_of(row), "-"});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("%zu row(s) matched, %zu slower in %s\n", matched, regressions,
              new_path.c_str());
  return 0;
}

int cmd_check(const std::vector<std::string>& files) {
  std::int64_t total = 0;
  for (const std::string& path : files) {
    if (cm5::sim::is_trace_file(path)) {
      const cm5::sim::TraceFileInfo info =
          cm5::sim::read_trace_file(path, nullptr);
      cm5::sim::TraceValidator validator(info.nprocs);
      cm5::sim::read_trace_file(path, &validator);
      const std::vector<std::string> violations = validator.finalize(nullptr);
      for (const std::string& v : violations) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), v.c_str());
      }
      std::printf("%s: %lld violation(s)\n", path.c_str(),
                  static_cast<long long>(violations.size()));
      total += static_cast<std::int64_t>(violations.size());
      continue;
    }
    const Value file = load_metrics_file(path);
    std::int64_t count =
        file.get("violations_total", Value(std::int64_t{0})).as_int();
    for (const RowView& row : rows_of(file)) {
      if (row.violations == nullptr) continue;
      for (std::size_t i = 0; i < row.violations->size(); ++i) {
        std::fprintf(stderr, "%s: %s: %s\n", path.c_str(), row.id.c_str(),
                     row.violations->at(i).as_string().c_str());
      }
    }
    std::printf("%s: %lld violation(s)\n", path.c_str(),
                static_cast<long long>(count));
    total += count;
  }
  return total == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: trace_analyzer show FILE...\n"
               "       trace_analyzer diff OLD NEW\n"
               "       trace_analyzer check FILE...\n"
               "FILEs are BENCH_*.json metrics files, or CM5TRACE event\n"
               "files (streamed; show/check only).\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) files.emplace_back(argv[i]);
  try {
    if (mode == "show" && !files.empty()) return cmd_show(files);
    if (mode == "diff" && files.size() == 2) {
      return cmd_diff(files[0], files[1]);
    }
    if (mode == "check" && !files.empty()) return cmd_check(files);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_analyzer: %s\n", e.what());
    return 2;
  }
  return usage();
}
