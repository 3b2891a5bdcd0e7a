#include "support/cli.hpp"

#include <cstdio>
#include <stdexcept>

#include "support/contracts.hpp"

namespace syncon {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_option(std::string name, std::string default_value,
                           std::string help) {
  SYNCON_REQUIRE(!options_.count(name), "duplicate option: " + name);
  options_[std::move(name)] =
      Option{std::move(default_value), std::move(help), false};
}

void CliParser::add_flag(std::string name, std::string help) {
  SYNCON_REQUIRE(!options_.count(name), "duplicate flag: " + name);
  options_[std::move(name)] = Option{"false", std::move(help), true};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      print_help();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = options_.find(name);
    if (it == options_.end()) {
      std::fprintf(stderr, "unknown option --%s\n\n", name.c_str());
      print_help();
      return false;
    }
    if (it->second.is_flag) {
      values_[name] = has_value ? value : "true";
    } else if (has_value) {
      values_[name] = value;
    } else if (i + 1 < argc) {
      values_[name] = argv[++i];
    } else {
      std::fprintf(stderr, "option --%s needs a value\n\n", name.c_str());
      print_help();
      return false;
    }
  }
  return true;
}

std::string CliParser::get(const std::string& name) const {
  auto opt = options_.find(name);
  SYNCON_REQUIRE(opt != options_.end(), "unregistered option: " + name);
  auto it = values_.find(name);
  return it != values_.end() ? it->second : opt->second.default_value;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const std::string value = get(name);
  try {
    std::size_t consumed = 0;
    const std::int64_t parsed = std::stoll(value, &consumed);
    SYNCON_REQUIRE(consumed == value.size(),
                   "option --" + name + " has trailing junk: " + value);
    return parsed;
  } catch (const ContractViolation&) {
    throw;
  } catch (const std::exception&) {
    throw ContractViolation("option --" + name + " is not an integer: " +
                            value);
  }
}

std::uint64_t CliParser::get_uint(const std::string& name,
                                  std::uint64_t max) const {
  // Parsed as unsigned directly (not via get_int): values above 2^63-1 are
  // legitimate here — e.g. replaying a 64-bit case seed.
  const std::string value = get(name);
  SYNCON_REQUIRE(value.empty() || value[0] != '-',
                 "option --" + name + " must be non-negative");
  try {
    std::size_t consumed = 0;
    const std::uint64_t parsed = std::stoull(value, &consumed);
    SYNCON_REQUIRE(consumed == value.size(),
                   "option --" + name + " has trailing junk: " + value);
    SYNCON_REQUIRE(parsed <= max, "option --" + name + " must be at most " +
                                      std::to_string(max) + ": " + value);
    return parsed;
  } catch (const ContractViolation&) {
    throw;
  } catch (const std::exception&) {
    throw ContractViolation("option --" + name + " is not an integer: " +
                            value);
  }
}

double CliParser::get_double(const std::string& name) const {
  const std::string value = get(name);
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    SYNCON_REQUIRE(consumed == value.size(),
                   "option --" + name + " has trailing junk: " + value);
    return parsed;
  } catch (const ContractViolation&) {
    throw;
  } catch (const std::exception&) {
    throw ContractViolation("option --" + name + " is not a number: " +
                            value);
  }
}

bool CliParser::get_flag(const std::string& name) const {
  const std::string v = get(name);
  return v == "true" || v == "1" || v == "yes";
}

void CliParser::print_help() const {
  std::printf("%s — %s\n\nOptions:\n", program_.c_str(),
              description_.c_str());
  for (const auto& [name, opt] : options_) {
    if (opt.is_flag) {
      std::printf("  --%-22s %s\n", name.c_str(), opt.help.c_str());
    } else {
      std::printf("  --%-22s %s (default: %s)\n", (name + "=<v>").c_str(),
                  opt.help.c_str(), opt.default_value.c_str());
    }
  }
}

}  // namespace syncon
