// The analysis request path shared by owl_cli and owl_served (DESIGN.md
// §10).
//
// Both front ends reach the pipeline through the same three functions:
// wire_request turns (module text, display name, AnalysisOptions) into a
// PipelineTarget and PipelineOptions (load, verify, entry lookup, machine
// factories, every option), render_output turns results into owl_cli's
// stdout bytes, and audit_exit_code turns results into the exit-3 verdict
// and its stderr lines. Executor::run is one `owl_cli <module> [flags]`
// invocation; owl_cli adds only its multi-target seed stream, the --jobs
// fan-out and its file sinks. The returned output/exit are therefore
// byte-identical to the one-shot CLI by construction, which the
// differential gate (scripts/serve_check.py) verifies end to end.
//
// Isolation: every run builds its module, machines, detectors and pipeline
// from scratch, and the audit verdict is read from the run's own results.
// Only the manifest still depends on process state: it embeds the
// process-wide MetricsRegistry snapshot, so run() reset()s the registry at
// entry and a request's manifest sees exactly what a fresh owl_cli process
// would. That reset is why the daemon executes requests one at a time (the
// executor is owned and driven by a single ServiceCore thread): throughput
// comes from the result cache and per-request --jobs parallelism, not from
// interleaving analyses that share the registry.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "support/fault_injector.hpp"
#include "support/thread_pool.hpp"

namespace owl::serve {

/// Outcome of one analysis execution.
struct ExecResult {
  int exit_code = 0;      ///< owl_cli exit contract: 0 ran, 1/2 load, 3 audit
  bool ran_pipeline = false;  ///< false for load/verify failures (uncacheable)
  bool degraded = false;
  std::string output;     ///< owl_cli stdout bytes
  std::string error;      ///< owl_cli stderr bytes (load errors, audit note)
  std::string manifest;   ///< environment-stripped run manifest (JSON)
};

/// One module wired for core::Pipeline, or the load failure that stopped
/// it.
struct WiredRequest {
  int exit_code = 0;  ///< owl_cli exit contract: 1 parse/entry, 2 verify
  std::string error;  ///< the owl_cli stderr line when exit_code != 0
  std::shared_ptr<ir::Module> module;  ///< owns what target.module points to
  core::PipelineTarget target;
  /// Every analysis option applied; tool "owl_cli", jobs 1, no fault
  /// injector, timings or manifest path (callers add their own).
  core::PipelineOptions pipeline;
  /// Shards the race verifier over options.jobs workers when jobs > 1;
  /// pipeline.verifier_pool points into it.
  std::unique_ptr<support::ThreadPool> verifier_pool;
};

/// Parses, verifies and wires one module. Never throws; a failure comes
/// back as exit_code/error with the bytes owl_cli prints.
WiredRequest wire_request(const std::string& module_text,
                          const std::string& display_name,
                          const AnalysisOptions& options);

/// owl_cli's stdout after the load phase: every summary, then every
/// target's details unless quiet, then the SARIF log when options.sarif.
std::string render_output(const std::vector<core::PipelineResult>& results,
                          const AnalysisOptions& options);

/// The audit part of owl_cli's exit contract, from the results alone: 3
/// when an audit-mode option found soundness violations (one stderr line
/// per violated audit appended to `error`), else 0.
int audit_exit_code(const std::vector<core::PipelineResult>& results,
                    const AnalysisOptions& options, std::string& error);

class Executor {
 public:
  /// `pipeline_faults` (optional, not owned) injects pipeline-stage faults
  /// into every request — the daemon-level equivalent of owl_cli
  /// --inject-fault detect:..., used by serve_fault_test and serve_check.
  explicit Executor(support::FaultInjector* pipeline_faults = nullptr)
      : pipeline_faults_(pipeline_faults) {}

  /// Executes one analysis request. Never throws: internal faults degrade
  /// into the FailureRecord machinery (pipeline stages) or an exit-1
  /// ExecResult (load phase).
  ExecResult run(const std::string& module_text,
                 const std::string& display_name,
                 const AnalysisOptions& options);

 private:
  support::FaultInjector* pipeline_faults_;
};

/// Reads the module file the way owl_cli does; false + error text on
/// failure (the error is the owl_cli stderr line, byte-identical).
bool read_module_file(const std::string& path, std::string& text,
                      std::string& error);

}  // namespace owl::serve
