//===- bench/HostStamp.h - Host metadata for trajectory points -*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "host" object every BENCH_*.json trajectory point carries, so that
/// two points can be compared only when they ran on comparable machines
/// and builds:
///
///   "host": {"nproc": N, "cpu": "...", "compiler": "...",
///            "build_type": "...", "git_sha": "..."}
///
/// nproc counts the CPUs the process may run on (as nproc(1) does), cpu is
/// the /proc/cpuinfo model name, compiler and build_type come from the
/// CMake configuration, and git_sha is the source tree's HEAD when the
/// bench was built, suffixed "-dirty" when tracked files differed from it
/// (bench/GitSha.cmake, run on every build).
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_BENCH_HOSTSTAMP_H
#define CRAFTY_BENCH_HOSTSTAMP_H

#include "BenchGitSha.h"
#include "support/Json.h"

#include <fstream>
#include <sched.h>
#include <string>

namespace crafty {

inline unsigned hostCpuCount() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 0;
  return (unsigned)CPU_COUNT(&Set);
}

inline std::string hostCpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("model name", 0) != 0)
      continue;
    size_t Colon = Line.find(':');
    size_t Begin = Line.find_first_not_of(' ', Colon + 1);
    if (Colon != std::string::npos && Begin != std::string::npos)
      return Line.substr(Begin);
  }
  return "unknown";
}

/// Writes the "host" field of a trajectory point into the open object.
inline void writeHostStamp(JsonWriter &W) {
  W.key("host")
      .beginObject(/*Inline=*/true)
      .field("nproc", hostCpuCount())
      .field("cpu", hostCpuModel())
      .field("compiler", CRAFTY_BENCH_COMPILER)
      .field("build_type", CRAFTY_BENCH_BUILD_TYPE)
      .field("git_sha", CRAFTY_BENCH_GIT_SHA)
      .endObject();
}

} // namespace crafty

#endif // CRAFTY_BENCH_HOSTSTAMP_H
