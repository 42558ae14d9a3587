#include "cm5/util/cli.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "cm5/util/check.hpp"

namespace cm5::util {

void ArgParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  CM5_CHECK_MSG(!options_.contains(name), "duplicate option: " + name);
  order_.push_back(name);
  options_[name] = Option{default_value, help, false};
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  CM5_CHECK_MSG(!options_.contains(name), "duplicate option: " + name);
  order_.push_back(name);
  options_[name] = Option{"false", help, true};
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::runtime_error("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = options_.find(arg);
    if (it == options_.end()) {
      throw std::runtime_error("unknown option: --" + arg);
    }
    if (it->second.is_flag) {
      if (has_value) throw std::runtime_error("flag --" + arg + " takes no value");
      values_[arg] = "true";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) throw std::runtime_error("option --" + arg + " needs a value");
      value = argv[++i];
    }
    values_[arg] = value;
  }
  return true;
}

const ArgParser::Option& ArgParser::find(const std::string& name) const {
  const auto it = options_.find(name);
  CM5_CHECK_MSG(it != options_.end(), "undeclared option: " + name);
  return it->second;
}

std::string ArgParser::get_string(const std::string& name) const {
  const Option& opt = find(name);
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : opt.default_value;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  const std::string v = get_string(name);
  try {
    std::size_t pos = 0;
    const std::int64_t result = std::stoll(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return result;
  } catch (const std::exception&) {
    throw std::runtime_error("option --" + name + ": not an integer: " + v);
  }
}

std::int64_t ArgParser::get_int(const std::string& name, std::int64_t lo,
                                std::int64_t hi, bool power_of_two) const {
  const std::int64_t v = get_int(name);
  if (v < lo || v > hi || (power_of_two && (v <= 0 || (v & (v - 1)) != 0))) {
    throw std::runtime_error(
        "option --" + name + ": expected " +
        (power_of_two ? "a power of two" : "an integer") + " in [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]: " +
        get_string(name));
  }
  return v;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string v = get_string(name);
  try {
    std::size_t pos = 0;
    const double result = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return result;
  } catch (const std::exception&) {
    throw std::runtime_error("option --" + name + ": not a number: " + v);
  }
}

bool ArgParser::get_flag(const std::string& name) const {
  return get_string(name) == "true";
}

std::vector<std::int64_t> ArgParser::get_int_list(const std::string& name) const {
  const std::string v = get_string(name);
  std::vector<std::int64_t> out;
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    try {
      std::size_t pos = 0;
      out.push_back(std::stoll(item, &pos));
      if (pos != item.size()) throw std::invalid_argument(item);
    } catch (const std::exception&) {
      throw std::runtime_error("option --" + name + ": bad list element: " + item);
    }
  }
  return out;
}

std::string ArgParser::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [options]\n";
  for (const std::string& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name;
    if (!opt.is_flag) os << " <value>";
    os << "\n      " << opt.help;
    if (!opt.is_flag) os << " (default: " << opt.default_value << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace cm5::util
