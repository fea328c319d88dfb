// Minimal command-line option parsing for the bench and example binaries.
//
// Supports "--name value" and "--name=value" forms plus "--flag" booleans.
// Unknown options are an error so that typos in sweep scripts fail loudly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace lmo {

class Cli {
 public:
  /// Parses argv; throws lmo::Error on malformed or unknown options if
  /// `known` is non-empty.
  Cli(int argc, const char* const* argv,
      std::vector<std::string> known = {});

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// Byte size: an integer with an optional k/M/G suffix (powers of 1024,
  /// case-insensitive). Rejects malformed values and trailing garbage
  /// exactly like get_int.
  [[nodiscard]] std::int64_t get_bytes(const std::string& name,
                                       std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// Positional (non-option) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Run a binary's main body under the CLI error contract every binary in
/// the repo follows: an uncaught lmo::Error becomes "error: <message>" on
/// stderr and exit code 1, never an unexplained SIGABRT. Usage:
///   int main(int argc, char** argv) {
///     return lmo::guarded_main([&] { return run(argc, argv); });
///   }
[[nodiscard]] int guarded_main(const std::function<int()>& body);

}  // namespace lmo
