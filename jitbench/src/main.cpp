//===- jitbench/src/main.cpp - Benchmark entry point ----------------------===//
///
/// \file
/// jitbench --workload <suites|serve|compile-churn> --seed N --seconds S
///          --trace <0|1> [--spans-out FILE]
///
/// Prints a human-readable detail object, then, as the last line of
/// standard output, one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// Untraced runs report the end-to-end metrics, traced runs the
/// per-layer ones. Refuses to run (exit 3, no result) while any JITVS_*
/// variable is set: the heap, runtime and telemetry still read some of
/// them from the environment, so a stray one would silently measure a
/// different program.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

extern char **environ;

using namespace jitbench;

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "jitbench: %s\n"
               "usage: jitbench --workload <suites|serve|compile-churn> "
               "--seed N --seconds S --trace <0|1> [--spans-out FILE]\n",
               Msg);
  std::exit(2);
}

std::vector<std::string> jitvsEnvironment() {
  std::vector<std::string> Vars;
  for (char **E = environ; E && *E; ++E)
    if (std::strncmp(*E, "JITVS_", 6) == 0)
      Vars.push_back(*E);
  return Vars;
}

std::string jsonString(const std::string &S) {
  std::ostringstream OS;
  jitvs::json::writeString(OS, S);
  return OS.str();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !V.empty();
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      HaveSeconds = End && *End == '\0' && O.Seconds > 0 && O.Seconds <= 600;
    } else if (A == "--trace") {
      HaveTrace = V == "0" || V == "1";
      O.Trace = V == "1";
    } else if (A == "--spans-out") {
      O.SpansOut = V;
    } else {
      usage(("unknown option " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds (0 < S <= 600) and --trace 0|1 "
          "are required");

  std::vector<std::string> Env = jitvsEnvironment();
  std::string EnvJson;
  for (const std::string &V : Env)
    EnvJson += (EnvJson.empty() ? "" : ", ") + jsonString(V);
  if (!Env.empty()) {
    std::fprintf(stderr,
                 "jitbench: refusing to run with JITVS_* set: [%s]\n",
                 EnvJson.c_str());
    return 3;
  }

  Result R;
  if (!runWorkload(O, R))
    usage(("unknown workload " + O.Workload).c_str());

  std::string Detail = "{\"workload\": " + jsonString(O.Workload) +
                       ", \"seed\": " + std::to_string(O.Seed) +
                       ", \"seconds\": " + jsonNumber(O.Seconds) +
                       ", \"trace\": " + (O.Trace ? "1" : "0") +
                       ", \"jitvs_env\": [" + EnvJson + "]";
  for (const auto &[K, V] : R.Detail)
    Detail += ", " + jsonString(K) + ": " + V;
  Detail += ", \"attempted\": " + std::to_string(R.Attempted) +
            ", \"failed\": " + std::to_string(R.Failed) + "}";
  std::cout << "detail " << Detail << "\n";

  std::string Out = std::string("{\"correct\": ") +
                    (R.Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(R.Attempted) +
                    ", \"failed\": " + std::to_string(R.Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    Out += (I ? ", " : "") + jsonString(M.Name) +
           ": {\"value\": " + jsonNumber(M.Value) +
           ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  Out += "}}";
  std::cout << Out << std::endl;
  return 0;
}
