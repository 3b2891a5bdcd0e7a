// Minimal command-line option parsing for the example applications.
// Supports --name=value / --name value / --flag forms plus -h/--help.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace syncon {

class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Registers an option; `help` is shown by print_help().
  void add_option(std::string name, std::string default_value,
                  std::string help);
  void add_flag(std::string name, std::string help);

  /// Parses argv. Returns false (after printing help) when -h/--help was
  /// given or an unknown option was encountered.
  bool parse(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  /// Rejects (ContractViolation) a value above `max` as well as junk.
  std::uint64_t get_uint(
      const std::string& name,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  /// Positional arguments (everything not starting with --).
  const std::vector<std::string>& positional() const { return positional_; }

  void print_help() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace syncon
