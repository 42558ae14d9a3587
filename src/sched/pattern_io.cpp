#include "cm5/sched/pattern_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace cm5::sched {
namespace {

/// Largest accepted machine size. A pattern file is O(nprocs^2) memory
/// after parsing; an absurd header must fail cleanly, not allocate.
constexpr std::int64_t kMaxNprocs = 4096;

[[noreturn]] void fail(std::size_t line_no, const std::string& what,
                       const std::string& line_text = {}) {
  std::string msg =
      "pattern parse error at line " + std::to_string(line_no) + ": " + what;
  if (!line_text.empty()) msg += " — \"" + line_text + "\"";
  throw std::runtime_error(msg);
}

}  // namespace

std::string pattern_to_text(const CommPattern& pattern) {
  std::ostringstream os;
  os << "cm5-pattern v1\n";
  os << "nprocs " << pattern.nprocs() << "\n";
  os << "# src dst bytes\n";
  for (NodeId src = 0; src < pattern.nprocs(); ++src) {
    for (NodeId dst = 0; dst < pattern.nprocs(); ++dst) {
      if (src == dst) continue;
      const std::int64_t bytes = pattern.at(src, dst);
      if (bytes > 0) os << src << ' ' << dst << ' ' << bytes << '\n';
    }
  }
  return os.str();
}

CommPattern pattern_from_text(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;

  auto next_content_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++line_no;
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos) continue;           // blank
      if (line[first] == '#') continue;                    // comment
      // Trim a trailing comment.
      const auto hash = line.find('#');
      if (hash != std::string::npos) line = line.substr(0, hash);
      return true;
    }
    return false;
  };

  auto expect_no_trailing = [&](std::istringstream& is_line) {
    std::string extra;
    if (is_line >> extra) fail(line_no, "trailing tokens: " + extra, line);
  };

  if (!next_content_line()) fail(line_no, "empty input");
  {
    std::istringstream magic(line);
    std::string word, version;
    magic >> word >> version;
    if (word != "cm5-pattern" || version != "v1") {
      fail(line_no, "bad magic header (expected \"cm5-pattern v1\")", line);
    }
    expect_no_trailing(magic);
  }

  if (!next_content_line()) fail(line_no, "missing nprocs line");
  std::istringstream header(line);
  std::string keyword;
  std::int64_t nprocs = 0;
  if (!(header >> keyword >> nprocs) || keyword != "nprocs" || nprocs < 1) {
    fail(line_no, "bad nprocs line (expected \"nprocs <count>\")", line);
  }
  if (nprocs > kMaxNprocs) {
    fail(line_no,
         "nprocs " + std::to_string(nprocs) + " exceeds the supported maximum " +
             std::to_string(kMaxNprocs),
         line);
  }
  expect_no_trailing(header);

  CommPattern pattern(static_cast<std::int32_t>(nprocs));
  while (next_content_line()) {
    std::istringstream row(line);
    std::int64_t src, dst, bytes;
    if (!(row >> src >> dst >> bytes)) {
      fail(line_no, "expected 'src dst bytes'", line);
    }
    expect_no_trailing(row);
    if (src < 0 || src >= nprocs || dst < 0 || dst >= nprocs) {
      fail(line_no, "processor id out of range", line);
    }
    if (src == dst) fail(line_no, "diagonal entry", line);
    if (bytes < 1) fail(line_no, "bytes must be positive", line);
    if (pattern.at(static_cast<NodeId>(src), static_cast<NodeId>(dst)) != 0) {
      fail(line_no, "duplicate entry", line);
    }
    pattern.set(static_cast<NodeId>(src), static_cast<NodeId>(dst), bytes);
  }
  return pattern;
}

void save_pattern(const CommPattern& pattern, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << pattern_to_text(pattern);
  if (!out) throw std::runtime_error("write failed: " + path);
}

CommPattern load_pattern(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return pattern_from_text(buffer.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace cm5::sched
