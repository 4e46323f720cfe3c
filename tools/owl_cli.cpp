// owl_cli — audit textual MiniIR programs with the OWL pipeline.
//
// Usage:
//   owl_cli <program.mir> [more.mir ...] [options]
//
// Several programs run as one multi-target pipeline sweep on --jobs
// workers; results print in input order and are byte-identical for any
// --jobs value (each target's schedules derive from its own seed stream).
//
// Options:
//   --entry <name>         entry function spawning the threads (default: main)
//   --jobs N               worker threads, 0..256: targets fan out across N
//                          workers; with one program, N>1 instead shards
//                          the race verifier's schedule exploration
//                          (default and 0: one worker per hardware thread;
//                          1 = sequential)
//   --timings              print the per-stage wall-clock summary
//   --inputs a,b,c         workload input vector (default: empty)
//   --exploit-inputs a,b,c inputs for the vulnerability verifier re-runs
//                          (default: same as --inputs)
//   --detector tsan|ski|atomicity   front-end detector (default: tsan)
//   --detector-impl fast|reference  detection-substrate implementation:
//                          the paged-shadow/epoch fast path (default) or
//                          the original hash-map substrate; both emit
//                          byte-identical reports (CI diffs them)
//   --prescreen MODE       static may-race prescreen: off (default), on
//                          (skip shadow work for statically race-free
//                          accesses), or audit (full detection plus
//                          pruned-but-raced violation counting; a nonzero
//                          violation count exits 3). Also --prescreen=MODE
//   --predict MODE         sync-preserving race prediction (DESIGN.md §12):
//                          off (default), on (the race verifier replays only
//                          predicted-feasible candidates, plus predicted
//                          races the observed schedules never exhibited), or
//                          audit (exhaustive path plus verdict cross-check;
//                          a nonzero violation count exits 3). Also
//                          --predict=MODE
//   --vuln-flow MODE       memory-aware value flow for Algorithm 1
//                          (DESIGN.md §14): off (default; register-only
//                          walk), on (corruption follows store->load
//                          may-alias edges into functions the call-stack
//                          walk never reaches), or audit (on plus a
//                          cross-check of every runtime-observed
//                          store->load dependence against the static edge
//                          set; a nonzero violation count exits 3). Also
//                          --vuln-flow=MODE
//   --schedules N          detection schedules, 1..2^20 (default: 4)
//   --seed S               base schedule seed (default: 1)
//   --max-steps N          per-run instruction budget (default: 400000)
//   --no-adhoc             disable adhoc-sync annotation (stage 2)
//   --no-race-verifier     disable dynamic race verification (stage 3)
//   --no-vuln-verifier     disable dynamic attack verification (stage 5)
//   --stage-deadline S     wall-clock deadline (seconds, fractional ok) for
//                          each of detection (annotation re-run included),
//                          race verification, vuln analysis and vuln
//                          verification; a stage that exhausts it degrades
//                          instead of running unbounded
//   --retries N            retries for schedule-dependent stages, 0..1000
//                          (default: 2)
//   --inject-fault SPEC    deterministic fault injection, repeatable.
//                          SPEC = stage:kind[:after] with
//                          stage in static|check|value-flow|detect|annotate|
//                          predict|race-verify|vuln-analyze|vuln-verify|
//                          repair and kind in stall|
//                          livelock|throw|truncate; `after` skips the first
//                          N probes
//   --checkers SEL         concurrency checker suite (DESIGN.md §11):
//                          off (default), all, or a comma list of
//                          deadlock,atomicity,lock-mismatch,condvar.
//                          Findings print in the summary/details and are
//                          byte-identical for any --jobs value. Also
//                          --checkers=SEL
//   --repair DIR           automated race repair (DESIGN.md §13): for each
//                          target with confirmed races, synthesize a patch
//                          (lock reuse / relocation / fresh lock), verify
//                          it by re-running the pipeline on the patched
//                          module (race-free incl. --predict on, no new
//                          checker finding, identical workload output) and
//                          write DIR/<stem>_fixed.mir plus
//                          DIR/<stem>_repair.json (owl-repair-v1). The
//                          rendered summary/details are independent of DIR
//                          so serve responses stay byte-identical
//   --sarif-out FILE       write checker findings as one SARIF 2.1.0 log
//                          covering every target in input order; "-"
//                          appends the log to stdout (after the details,
//                          before the timings)
//   --whole-program        ablation: ignore runtime call stacks
//   --print-module         echo the parsed module before analyzing
//   --print-reports        print every surviving race report
//   --trace-out FILE       record per-stage spans and write a Chrome
//                          trace_event JSON (about:tracing / Perfetto)
//   --manifest FILE        write the run manifest (inputs, options, seeds,
//                          per-target StageCounts, metrics snapshot)
//   --metrics-out FILE     write the deterministic metrics snapshot
//                          (support/metrics.hpp serialize() text form)
//   -q / --quiet           summary only
//
// The analysis flags parse into serve::AnalysisOptions, the struct
// owl_served's "options" object parses into, and each program is wired by
// serve::wire_request, so the daemon answers byte for byte what this tool
// prints. --jobs, --schedules and --retries share the daemon's caps.
//
// Exit status: 0 when the pipeline ran (regardless of findings), 1 on
// usage/parse errors, 2 when the module fails verification, 3 when
// --prescreen audit, --predict audit, or --vuln-flow audit observed
// soundness violations.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/render.hpp"
#include "ir/printer.hpp"
#include "repair/engine.hpp"
#include "serve/executor.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

using namespace owl;

namespace {

/// The analysis options owl_served also takes, plus what only a one-shot
/// process has: paths, the --jobs fan-out, fault plans and file sinks.
struct CliOptions {
  std::vector<std::string> paths;
  serve::AnalysisOptions analysis;
  unsigned jobs = 0;  ///< 0 = hardware_concurrency
  bool timings = false;
  std::vector<support::FaultPlan> fault_plans;
  std::string trace_out;    ///< Chrome trace JSON path ("" = tracing off)
  std::string manifest_out; ///< run-manifest JSON path ("" = none)
  std::string metrics_out;  ///< metrics snapshot text path ("" = none)
  std::string sarif_out;    ///< SARIF log path; "-" = stdout ("" = none)
  std::string repair_dir;   ///< --repair DIR; "" = repair stage off
};

void usage() {
  std::fprintf(stderr,
               "usage: owl_cli <program.mir> [more.mir ...]\n"
               "       [--entry main] [--inputs a,b,c] [--jobs N] [--timings]\n"
               "       [--detector tsan|ski|atomicity] [--schedules N]\n"
               "       [--detector-impl fast|reference]\n"
               "       [--prescreen off|on|audit] [--predict off|on|audit]\n"
               "       [--vuln-flow off|on|audit]\n"
               "       [--seed S] [--max-steps N] [--no-adhoc]\n"
               "       [--no-race-verifier] [--no-vuln-verifier]\n"
               "       [--whole-program] [--print-module] [--print-reports]\n"
               "       [--stage-deadline S] [--retries N]\n"
               "       [--inject-fault stage:kind[:after]] [-q|--quiet]\n"
               "       [--trace-out FILE] [--manifest FILE]\n"
               "       [--metrics-out FILE]\n"
               "       [--checkers off|all|LIST] [--sarif-out FILE|-]\n"
               "       [--repair DIR]\n");
}

/// Parses "stage:kind[:after]" into a FaultPlan via the shared parser
/// (support::parse_fault_plan — also used by owl_served); owl_cli rejects
/// the service phases, which only exist in the daemon's request lifecycle.
bool parse_fault_spec(const char* text, support::FaultPlan& plan) {
  return support::parse_fault_plan(text, plan) &&
         !support::is_service_phase(plan.stage);
}

bool parse_word_list(const char* text, std::vector<std::int64_t>& out) {
  for (const std::string& part : split(text, ',')) {
    std::int64_t value = 0;
    if (!parse_int64(part, value)) return false;
    out.push_back(value);
  }
  return true;
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  serve::AnalysisOptions& analysis = options.analysis;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    // The mode and checker flags also take their value as --flag=VALUE.
    const char* inline_value = nullptr;
    if (const std::size_t eq = arg.find('='); eq != std::string_view::npos) {
      const std::string_view flag = arg.substr(0, eq);
      if (flag == "--prescreen" || flag == "--predict" ||
          flag == "--vuln-flow" || flag == "--checkers") {
        inline_value = argv[i] + eq + 1;
        arg = flag;
      }
    }
    const auto next = [&]() -> const char* {
      if (inline_value != nullptr) return inline_value;
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // The next argument as an integer in [lo, hi].
    const auto next_int = [&](std::int64_t lo, std::int64_t hi,
                              std::int64_t& n) {
      const char* v = next();
      return v != nullptr && parse_int64(v, n) && n >= lo && n <= hi;
    };
    std::int64_t n = 0;
    if (arg == "--entry") {
      const char* v = next();
      if (v == nullptr) return false;
      analysis.entry = v;
    } else if (arg == "--inputs") {
      const char* v = next();
      if (v == nullptr || !parse_word_list(v, analysis.inputs)) return false;
    } else if (arg == "--exploit-inputs") {
      const char* v = next();
      if (v == nullptr || !parse_word_list(v, analysis.exploit_inputs)) {
        return false;
      }
    } else if (arg == "--detector") {
      const char* v = next();
      if (v == nullptr || !core::parse_detector_kind(v, analysis.detector)) {
        return false;
      }
    } else if (arg == "--detector-impl") {
      const char* v = next();
      if (v == nullptr ||
          !race::parse_detector_impl(v, analysis.detector_impl)) {
        return false;
      }
    } else if (arg == "--prescreen" || arg == "--predict" ||
               arg == "--vuln-flow") {
      support::AuditMode& mode = arg == "--prescreen" ? analysis.prescreen
                                 : arg == "--predict" ? analysis.predict
                                                      : analysis.vuln_flow;
      const char* v = next();
      if (v == nullptr || !support::parse_audit_mode(v, mode)) return false;
    } else if (arg == "--schedules") {
      if (!next_int(1, serve::kMaxSchedules, n)) return false;
      analysis.schedules = static_cast<unsigned>(n);
    } else if (arg == "--seed") {
      if (!next_int(INT64_MIN, INT64_MAX, n)) return false;
      analysis.seed = static_cast<std::uint64_t>(n);
    } else if (arg == "--max-steps") {
      if (!next_int(1, INT64_MAX, n)) return false;
      analysis.max_steps = static_cast<std::uint64_t>(n);
    } else if (arg == "--stage-deadline") {
      const char* v = next();
      if (v == nullptr) return false;
      char* end = nullptr;
      analysis.stage_deadline = std::strtod(v, &end);
      if (end == v || *end != '\0' || analysis.stage_deadline <= 0) {
        return false;
      }
    } else if (arg == "--retries") {
      if (!next_int(0, serve::kMaxRetries, n)) return false;
      analysis.retries = static_cast<unsigned>(n);
    } else if (arg == "--jobs") {
      if (!next_int(0, serve::kMaxJobs, n)) return false;
      options.jobs = static_cast<unsigned>(n);
    } else if (arg == "--timings") {
      options.timings = true;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      options.trace_out = v;
    } else if (arg == "--manifest") {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      options.manifest_out = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      options.metrics_out = v;
    } else if (arg == "--checkers") {
      const char* v = next();
      std::string error;
      if (v == nullptr ||
          !checkers::CheckerOptions::parse(v, analysis.checkers, error)) {
        if (!error.empty()) {
          std::fprintf(stderr, "owl_cli: %s\n", error.c_str());
        }
        return false;
      }
    } else if (arg == "--sarif-out") {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      options.sarif_out = v;
    } else if (arg == "--repair") {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      options.repair_dir = v;
    } else if (arg == "--inject-fault") {
      const char* v = next();
      support::FaultPlan plan;
      if (v == nullptr || !parse_fault_spec(v, plan)) return false;
      options.fault_plans.push_back(std::move(plan));
    } else if (arg == "--no-adhoc") {
      analysis.adhoc = false;
    } else if (arg == "--no-race-verifier") {
      analysis.race_verifier = false;
    } else if (arg == "--no-vuln-verifier") {
      analysis.vuln_verifier = false;
    } else if (arg == "--whole-program") {
      analysis.whole_program = true;
    } else if (arg == "--print-module") {
      analysis.print_module = true;
    } else if (arg == "--print-reports") {
      analysis.print_reports = true;
    } else if (arg == "-q" || arg == "--quiet") {
      analysis.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return false;
    } else {
      options.paths.emplace_back(arg);
    }
  }
  return !options.paths.empty();
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_args(argc, argv, options)) {
    usage();
    return 1;
  }
  const unsigned jobs =
      options.jobs == 0 ? support::ThreadPool::default_jobs() : options.jobs;
  serve::AnalysisOptions& analysis = options.analysis;
  // With one program, --jobs buys wall-clock through the race verifier's
  // schedule-exploration sharding; with several, through the target
  // fan-out (run_many forwards no verifier pool to its workers).
  analysis.jobs = options.paths.size() == 1 ? jobs : 1;
  analysis.sarif = options.sarif_out == "-";
  analysis.repair = !options.repair_dir.empty();

  // Load and verify every module up front (fail fast, old exit codes),
  // then audit them as one multi-target sweep.
  std::vector<serve::WiredRequest> wired;
  std::vector<core::PipelineTarget> targets;
  // Per-target schedule seeds: one program keeps --seed exactly (replay
  // compatibility); several derive an independent SplitMix stream per
  // input position via the splittable Rng — a function of (--seed,
  // position) only, never of worker interleaving.
  Rng seed_stream(analysis.seed);
  for (const std::string& path : options.paths) {
    std::string text;
    std::string error;
    if (!serve::read_module_file(path, text, error)) {
      std::fputs(error.c_str(), stderr);
      return 1;
    }
    serve::WiredRequest request = serve::wire_request(text, path, analysis);
    if (request.exit_code != 0) {
      std::fputs(request.error.c_str(), stderr);
      return request.exit_code;
    }
    if (analysis.print_module) {
      std::fputs(ir::print_module(*request.module).c_str(), stdout);
    }
    if (options.paths.size() > 1) {
      request.target.seed = seed_stream.split().next();
    }
    targets.push_back(request.target);
    wired.push_back(std::move(request));
  }

  // Every invocation goes through run_many — the single entry point that
  // emits the run manifest.
  core::PipelineOptions pipeline_options = wired.front().pipeline;
  if (targets.size() > 1) pipeline_options.jobs = jobs;
  pipeline_options.manifest_path = options.manifest_out;
  StageTimings stage_timings;
  if (options.timings) pipeline_options.stage_timings = &stage_timings;
  support::FaultInjector injector(analysis.seed);
  for (const support::FaultPlan& plan : options.fault_plans) {
    injector.add_plan(plan);
  }
  if (!injector.empty()) pipeline_options.fault_injector = &injector;
  if (!options.trace_out.empty()) {
    support::TraceCollector::instance().set_enabled(true);
  }
  const std::vector<core::PipelineResult> results =
      core::Pipeline(pipeline_options).run_many(targets);
  std::fputs(serve::render_output(results, analysis).c_str(), stdout);

  int status = 0;
  if (!options.repair_dir.empty()) {
    // File emission is CLI-only (owl_served never writes): the rendered
    // output above carries everything path-independent, the repair
    // artifacts land here. Write failures warn and fail the run like the
    // trace/metrics sinks below.
    std::error_code ec;
    std::filesystem::create_directories(options.repair_dir, ec);
    for (const core::PipelineResult& result : results) {
      if (!result.counts.ran(support::PipelineStage::kRepair)) continue;
      const std::string fixed_name =
          repair::fixed_module_name(result.target_name);
      const std::string stem =
          fixed_name.substr(0, fixed_name.size() - std::strlen("_fixed.mir"));
      const std::string report_path =
          options.repair_dir + "/" + stem + "_repair.json";
      std::ofstream report_out(report_path, std::ios::trunc);
      report_out << repair::render_repair_json(result.repair,
                                               result.target_name);
      report_out.close();
      if (!report_out) {
        std::fprintf(stderr, "owl_cli: cannot write repair report to %s\n",
                     report_path.c_str());
        status = 1;
      }
      if (result.repair.status == "repaired" &&
          !result.repair.patched_text.empty()) {
        const std::string fixed_path =
            options.repair_dir + "/" + fixed_name;
        std::ofstream fixed_out(fixed_path, std::ios::trunc);
        fixed_out << result.repair.patched_text;
        fixed_out.close();
        if (!fixed_out) {
          std::fprintf(stderr, "owl_cli: cannot write fixed module to %s\n",
                       fixed_path.c_str());
          status = 1;
        }
      }
    }
  }
  if (!options.sarif_out.empty() && !analysis.sarif) {
    std::ofstream out(options.sarif_out, std::ios::trunc);
    out << core::render_cli_sarif(results);
    if (!out) {
      std::fprintf(stderr, "owl_cli: cannot write SARIF to %s\n",
                   options.sarif_out.c_str());
      status = 1;
    }
  }
  if (options.timings) {
    std::printf("\n--- per-stage timings (jobs=%u) ---\n", jobs);
    std::fputs(stage_timings.summary().c_str(), stdout);
  }
  if (!options.trace_out.empty() &&
      !support::TraceCollector::instance().write_chrome_trace(
          options.trace_out)) {
    std::fprintf(stderr, "owl_cli: cannot write trace to %s\n",
                 options.trace_out.c_str());
    status = 1;
  }
  if (!options.metrics_out.empty()) {
    std::ofstream out(options.metrics_out, std::ios::trunc);
    out << support::metrics().serialize();
    if (!out) {
      std::fprintf(stderr, "owl_cli: cannot write metrics to %s\n",
                   options.metrics_out.c_str());
      status = 1;
    }
  }
  std::string audit_error;
  if (const int audit = serve::audit_exit_code(results, analysis, audit_error);
      audit != 0) {
    std::fputs(audit_error.c_str(), stderr);
    status = audit;
  }
  return status;
}
