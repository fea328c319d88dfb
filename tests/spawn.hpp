// Spawning the real binaries from a test: the one shell-out helper shared
// by the exit-code contract (test_cli_exit.cpp) and the end-to-end gates
// (test_gates.cpp). Binary paths come from LMO_*_BIN compile definitions
// ($<TARGET_FILE:...>), so a suite always drives the binaries built
// alongside it.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

namespace lmo::test {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

/// Run a shell command, capturing combined output and the exit code.
inline RunResult run(const std::string& command) {
  RunResult r;
  std::FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + status;
  return r;
}

/// The whole file as bytes; empty when it cannot be opened.
inline std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream s;
  s << f.rdbuf();
  return s.str();
}

}  // namespace lmo::test
