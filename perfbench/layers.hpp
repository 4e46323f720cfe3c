// The traced pass: calls each layer of the pipeline through its public entry
// point, on the inputs the untraced Pipeline::run gave it, and times each
// call from the benchmark's side. Nothing inside the program is
// instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "core/pipeline.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The daemon executor's span contains the pipeline layers timed beside it,
/// so it is left out of the attributed sum.
inline constexpr const char* kParentSpan = "serve.execute_s";

/// Per-layer totals of one traced round: busy seconds ("*_s" keys) and work
/// counts (every other key), summed over the round's inputs.
struct LayerTotals {
  std::map<std::string, double> seconds;
  std::map<std::string, std::uint64_t> counts;

  void time(const std::string& key, double s) { seconds[key] += s; }
  void count(const std::string& key, std::uint64_t n) { counts[key] += n; }
  /// Busy seconds of every layer except kParentSpan.
  double attributed_seconds() const;
};

/// Replays the layers of one pipeline target and returns "" when every
/// StageCounts field the replay reproduces equals the untraced result's, or
/// a description of the first mismatch. Supports the option sets the
/// benchmark uses: no budgets, no fault injection, no prescreen, no audit
/// modes, no preset annotations, no atomicity detector.
std::string trace_target(const owl::core::PipelineTarget& target,
                         const owl::core::PipelineOptions& options,
                         const owl::core::PipelineResult& untraced,
                         bool print_reports, LayerTotals& totals);

/// Instructions in a module (the ir layer's work count).
std::uint64_t count_instructions(const owl::ir::Module& module);

}  // namespace perfbench
