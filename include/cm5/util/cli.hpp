#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

/// \file cli.hpp
/// Minimal command-line option parsing for examples and bench harnesses.
///
/// Supports `--name value` and `--name=value` long options plus `--flag`
/// booleans. Unknown options are an error so typos fail loudly.

namespace cm5::util {

/// Parses argv into typed options.
class ArgParser {
 public:
  /// Declares an option with a default value and a help string.
  /// Declaration order is preserved in the help text.
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Declares a boolean flag (default false).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses the command line. Returns false (after printing usage) if
  /// `--help` was requested; throws std::runtime_error on malformed input.
  bool parse(int argc, const char* const* argv);

  /// Typed accessors; the option must have been declared.
  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  /// get_int that also requires lo <= value <= hi and, if asked, a
  /// power of two; throws std::runtime_error naming the option.
  std::int64_t get_int(const std::string& name, std::int64_t lo,
                       std::int64_t hi, bool power_of_two = false) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  /// Parses a comma-separated list of integers ("32,64,128").
  std::vector<std::int64_t> get_int_list(const std::string& name) const;

  /// Renders the usage text.
  std::string usage(const std::string& program) const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };
  const Option& find(const std::string& name) const;

  std::vector<std::string> order_;
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
};

}  // namespace cm5::util
