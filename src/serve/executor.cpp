#include "serve/executor.hpp"

#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "core/manifest.hpp"
#include "core/render.hpp"
#include "interp/machine.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"

namespace owl::serve {
namespace {

race::MachineFactory machine_factory(std::shared_ptr<const ir::Module> module,
                                     const ir::Function* entry,
                                     std::vector<interp::Word> inputs,
                                     std::uint64_t max_steps) {
  return [module = std::move(module), entry, inputs = std::move(inputs),
          max_steps] {
    interp::MachineOptions machine_options;
    machine_options.inputs = inputs;
    machine_options.max_steps = max_steps;
    auto machine = std::make_unique<interp::Machine>(*module, machine_options);
    machine->start(entry);
    return machine;
  };
}

}  // namespace

bool read_module_file(const std::string& path, std::string& text,
                      std::string& error) {
  std::ifstream file(path);
  if (!file) {
    error = str_format("owl_cli: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  text = buffer.str();
  return true;
}

WiredRequest wire_request(const std::string& module_text,
                          const std::string& display_name,
                          const AnalysisOptions& options) {
  WiredRequest wired;
  auto parsed = ir::parse_module(module_text);
  if (!parsed.is_ok()) {
    wired.exit_code = 1;
    wired.error = str_format("owl_cli: %s: %s\n", display_name.c_str(),
                             parsed.status().to_string().c_str());
    return wired;
  }
  wired.module = std::move(parsed).value();
  if (const Status status = ir::verify_module(*wired.module);
      !status.is_ok()) {
    wired.exit_code = 2;
    wired.error = str_format("owl_cli: %s: %s\n", display_name.c_str(),
                             status.to_string().c_str());
    return wired;
  }
  const ir::Function* entry = wired.module->find_function(options.entry);
  if (entry == nullptr || !entry->has_body()) {
    wired.exit_code = 1;
    wired.error = str_format("owl_cli: %s: no entry function @%s\n",
                             display_name.c_str(), options.entry.c_str());
    return wired;
  }

  const std::vector<interp::Word> inputs(options.inputs.begin(),
                                         options.inputs.end());
  const std::vector<interp::Word> exploit_inputs =
      options.exploit_inputs.empty()
          ? inputs
          : std::vector<interp::Word>(options.exploit_inputs.begin(),
                                      options.exploit_inputs.end());
  core::PipelineTarget& target = wired.target;
  target.name = display_name;
  target.module = wired.module.get();
  target.factory =
      machine_factory(wired.module, entry, inputs, options.max_steps);
  target.exploit_factory =
      machine_factory(wired.module, entry, exploit_inputs, options.max_steps);
  // The repair engine verifies candidate patches by running the pipeline
  // on a cloned, rewritten module, so this factory resolves the entry by
  // name on whatever module it is handed (the shared_ptr keeps the clone
  // alive for as long as any machine is outstanding).
  target.factory_for_module = [entry_name = options.entry, inputs,
                               max_steps = options.max_steps](
                                  std::shared_ptr<const ir::Module> patched) {
    const ir::Function* patched_entry = patched->find_function(entry_name);
    return machine_factory(std::move(patched), patched_entry, inputs,
                           max_steps);
  };
  target.detector = options.detector;
  target.detection_schedules = options.schedules;
  target.seed = options.seed;

  core::PipelineOptions& pipeline = wired.pipeline;
  pipeline.enable_adhoc_annotation = options.adhoc;
  pipeline.enable_race_verifier = options.race_verifier;
  pipeline.enable_vuln_verifier = options.vuln_verifier;
  pipeline.analyzer_mode =
      options.whole_program ? vuln::VulnerabilityAnalyzer::Mode::kWholeProgram
                            : vuln::VulnerabilityAnalyzer::Mode::kDirected;
  if (options.stage_deadline > 0) {
    pipeline.stage_budgets =
        core::StageBudgets::uniform_wall(options.stage_deadline);
  }
  pipeline.retry.max_retries = options.retries;
  pipeline.detector_impl = options.detector_impl;
  pipeline.prescreen = options.prescreen;
  pipeline.predict = options.predict;
  pipeline.vuln_flow = options.vuln_flow;
  pipeline.checkers = options.checkers;
  pipeline.repair.enabled = options.repair;
  // The manifest documents the canonical one-shot invocation, whichever
  // front end ran it, so serve_check can diff it against owl_cli's.
  pipeline.manifest_tool = "owl_cli";
  // One target: jobs buys verifier schedule sharding (run_many itself
  // stays sequential).
  pipeline.jobs = 1;
  if (options.jobs > 1) {
    wired.verifier_pool = std::make_unique<support::ThreadPool>(options.jobs);
    pipeline.verifier_pool = wired.verifier_pool.get();
  }
  return wired;
}

std::string render_output(const std::vector<core::PipelineResult>& results,
                          const AnalysisOptions& options) {
  std::string out;
  for (const core::PipelineResult& result : results) {
    out += core::render_cli_summary(result);
  }
  if (!options.quiet) {
    for (const core::PipelineResult& result : results) {
      out += core::render_cli_details(result, options.print_reports);
    }
  }
  if (options.sarif) out += core::render_cli_sarif(results);
  return out;
}

int audit_exit_code(const std::vector<core::PipelineResult>& results,
                    const AnalysisOptions& options, std::string& error) {
  core::PipelineResult::AuditViolations total;
  for (const core::PipelineResult& result : results) {
    total.prescreen += result.audit.prescreen;
    total.predict += result.audit.predict;
    total.vuln_flow += result.audit.vuln_flow;
  }
  int exit_code = 0;
  const auto report = [&](support::AuditMode mode, std::uint64_t violations,
                          const char* audit, const char* what) {
    if (mode != support::AuditMode::kAudit || violations == 0) return;
    error += str_format("owl_cli: %s audit: %llu %s\n", audit,
                        static_cast<unsigned long long>(violations), what);
    exit_code = 3;
  };
  report(options.prescreen, total.prescreen, "prescreen",
         "pruned-but-raced access(es) falsify the static no-race verdict");
  report(options.predict, total.predict, "predict",
         "verified race(s) the SP-closure wrongly called infeasible");
  report(options.vuln_flow, total.vuln_flow, "vuln-flow",
         "runtime store->load dependence(s) missing from the static "
         "value-flow graph");
  return exit_code;
}

ExecResult Executor::run(const std::string& module_text,
                         const std::string& display_name,
                         const AnalysisOptions& options) {
  ExecResult result;
  // Fresh-process equivalence for the manifest's metrics snapshot.
  support::metrics().reset();

  WiredRequest wired = wire_request(module_text, display_name, options);
  if (wired.exit_code != 0) {
    result.exit_code = wired.exit_code;
    result.error = std::move(wired.error);
    return result;
  }
  if (options.print_module) {
    result.output += ir::print_module(*wired.module);
  }
  if (pipeline_faults_ != nullptr && !pipeline_faults_->empty()) {
    wired.pipeline.fault_injector = pipeline_faults_;
  }

  const std::vector<core::PipelineTarget> targets{wired.target};
  const std::vector<core::PipelineResult> results =
      core::Pipeline(wired.pipeline).run_many(targets);
  result.ran_pipeline = true;
  result.degraded = results.front().degraded();
  result.output += render_output(results, options);
  result.manifest = core::strip_manifest_environment(
      core::render_manifest("owl_cli", wired.pipeline, targets, results));
  result.exit_code = audit_exit_code(results, options, result.error);
  return result;
}

}  // namespace owl::serve
