#include "util/cli.hpp"

#include <algorithm>
#include <iostream>
#include <limits>

#include "util/error.hpp"

namespace lmo {

Cli::Cli(int argc, const char* const* argv, std::vector<std::string> known) {
  auto is_known = [&](const std::string& n) {
    return known.empty() || std::find(known.begin(), known.end(), n) != known.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value = "true";
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    if (!is_known(name)) throw Error("unknown option --" + name);
    values_[name] = std::move(value);
  }
}

bool Cli::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

// std::stoll/std::stod throw std::invalid_argument / std::out_of_range and
// happily accept trailing garbage ("12x" parses as 12). Both violate the
// header's "fail loudly with lmo::Error" contract, so every numeric lookup
// funnels through here.
template <typename T, typename Parse>
T parse_numeric(const std::string& name, const std::string& value,
                const char* what, Parse parse) {
  std::size_t pos = 0;
  try {
    T parsed = parse(value, &pos);
    if (pos != value.size()) {
      throw Error("option --" + name + ": trailing garbage in " + what +
                  " value \"" + value + "\"");
    }
    return parsed;
  } catch (const Error&) {
    throw;
  } catch (const std::out_of_range&) {
    throw Error("option --" + name + ": " + what + " value \"" + value +
                "\" is out of range");
  } catch (const std::exception&) {
    throw Error("option --" + name + ": expected " + what + ", got \"" +
                value + "\"");
  }
}

}  // namespace

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_numeric<std::int64_t>(
      name, it->second, "an integer",
      [](const std::string& s, std::size_t* pos) { return std::stoll(s, pos); });
}

std::int64_t Cli::get_bytes(const std::string& name,
                            std::int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  std::size_t pos = 0;
  std::int64_t base = 0;
  try {
    base = std::stoll(value, &pos);
  } catch (const std::out_of_range&) {
    throw Error("option --" + name + ": a byte size value \"" + value +
                "\" is out of range");
  } catch (const std::exception&) {
    throw Error("option --" + name + ": expected a byte size, got \"" +
                value + "\"");
  }
  std::int64_t mult = 1;
  if (pos < value.size()) {
    switch (value[pos]) {
      case 'k': case 'K': mult = 1024; break;
      case 'm': case 'M': mult = 1024 * 1024; break;
      case 'g': case 'G': mult = 1024LL * 1024 * 1024; break;
      default:
        throw Error("option --" + name +
                    ": trailing garbage in a byte size value \"" + value +
                    "\"");
    }
    ++pos;
  }
  if (pos != value.size())
    throw Error("option --" + name +
                ": trailing garbage in a byte size value \"" + value + "\"");
  if (mult > 1) {
    const std::int64_t limit =
        std::numeric_limits<std::int64_t>::max() / mult;
    if (base > limit || base < -limit)
      throw Error("option --" + name + ": a byte size value \"" + value +
                  "\" is out of range");
  }
  return base * mult;
}

double Cli::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_numeric<double>(
      name, it->second, "a number",
      [](const std::string& s, std::size_t* pos) { return std::stod(s, pos); });
}

bool Cli::get_flag(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return false;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

int guarded_main(const std::function<int()>& body) {
  try {
    return body();
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace lmo
