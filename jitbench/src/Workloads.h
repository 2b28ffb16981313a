//===- jitbench/src/Workloads.h - The benchmark's three workloads ---------===//
///
/// \file
/// `suites`, `serve` and `compile-churn`: each makes its inputs from the
/// seed, computes interpreter-only reference outputs during set-up, then
/// either measures the end-to-end metrics (untraced) or the per-layer
/// metrics (traced, through jitbench::Tracer). README.md next to this
/// package defines every metric and says which layer should move which
/// end-to-end number on which workload.
///
//===----------------------------------------------------------------------===//

#ifndef JITBENCH_WORKLOADS_H
#define JITBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace jitbench {

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Traced runs: where the first traced pass's spans are written (CSV).
  std::string SpansOut;
};

struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Facts for the human-readable detail line: key -> JSON value text.
  std::vector<std::pair<std::string, std::string>> Detail;
};

/// \returns false when \p O names no workload.
bool runWorkload(const Options &O, Result &R);

/// \p V with all its digits, as a JSON number.
std::string jsonNumber(double V);

} // namespace jitbench

#endif // JITBENCH_WORKLOADS_H
