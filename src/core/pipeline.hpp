// The OWL pipeline — Fig. 3 of the paper, end to end.
//
//  (1) a concurrency error detector (TSan / SKI mode) runs the program on
//      the given inputs and produces raw race reports;
//  (2) the static adhoc-synchronization detector classifies the reports,
//      annotates the busy-wait pairs, and the detector re-runs — pruning
//      benign schedules;
//  (3) the dynamic race verifier confirms which surviving reports are real
//      races, attaching §5.2 security hints;
//  (4) the static vulnerability analyzer (Algorithm 1) finds bug-to-attack
//      propagations and emits vulnerable input hints;
//  (5) the dynamic vulnerability verifier re-runs the program on the
//      vulnerable inputs and confirms which attacks are realizable.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "checkers/checker.hpp"
#include "core/attack.hpp"
#include "core/report_store.hpp"
#include "analysis/value_flow.hpp"
#include "race/prescreen_view.hpp"
#include "race/ski_detector.hpp"
#include "repair/report.hpp"
#include "support/audit_mode.hpp"
#include "support/deadline.hpp"
#include "support/fault_injector.hpp"
#include "support/retry.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "verify/race_verifier.hpp"
#include "verify/vuln_verifier.hpp"
#include "vuln/analyzer.hpp"

namespace owl::core {

enum class DetectorKind {
  kTsan,       ///< happens-before races (applications)
  kSki,        ///< schedule exploration + watch lists (kernels)
  kAtomicity,  ///< unserializable interleavings (§8.3's CTrigger extension)
};

/// The --detector vocabulary: "tsan" | "ski" | "atomicity".
std::string_view detector_kind_name(DetectorKind kind) noexcept;
bool parse_detector_kind(std::string_view text, DetectorKind& out) noexcept;

/// What the pipeline runs against. Workloads (src/workloads) produce these.
struct PipelineTarget {
  std::string name;                 ///< program name for reports
  const ir::Module* module = nullptr;
  /// Fresh machine configured with the *testing* inputs (detection runs).
  race::MachineFactory factory;
  /// Fresh machine configured with the *vulnerable* inputs inferred from
  /// the input hints (verification runs). Falls back to `factory` if unset.
  race::MachineFactory exploit_factory;
  /// Exploit-driver ordering hint for the vulnerability verifier.
  std::vector<interp::ThreadId> thread_order;
  /// Builds a machine factory for an *arbitrary* module — the repair
  /// stage's hook for running the full pipeline on patched clones (the
  /// shared_ptr keeps the clone alive inside the returned factory). Unset
  /// means repair cannot verify candidates and degrades for this target.
  std::function<race::MachineFactory(std::shared_ptr<const ir::Module>)>
      factory_for_module;
  DetectorKind detector = DetectorKind::kTsan;
  unsigned detection_schedules = 4;  ///< schedules explored in steps (1)/(2)
  std::uint64_t seed = 1;
};

/// Per-stage allowances for the Fig. 3 stages (unlimited by default).
/// Replaces the single Machine::max_steps cliff with stage-scoped budgets:
/// a stage that exhausts its allowance degrades (FailureRecord on the
/// target's StageCounts) instead of running unbounded.
struct StageBudgets {
  support::BudgetSpec detection;          ///< steps (1)+(2): detector runs
  support::BudgetSpec race_verification;  ///< step (3)
  support::BudgetSpec vuln_analysis;      ///< step (4)
  support::BudgetSpec vuln_verification;  ///< step (5)

  /// Applies one wall-clock deadline to each of the four budgeted stages
  /// (CLI --stage-deadline); the other stages run unbounded.
  static StageBudgets uniform_wall(double seconds) {
    StageBudgets budgets;
    budgets.detection.wall_seconds = seconds;
    budgets.race_verification.wall_seconds = seconds;
    budgets.vuln_analysis.wall_seconds = seconds;
    budgets.vuln_verification.wall_seconds = seconds;
    return budgets;
  }
};

struct PipelineOptions {
  bool enable_adhoc_annotation = true;  ///< ablation knob (step 2)
  /// Detection-substrate implementation for steps (1)/(2). kFast is the
  /// default; kReference is the original hash-map substrate the CI
  /// differential gate diffs against (both emit byte-identical reports).
  race::DetectorImpl detector_impl = race::DetectorImpl::kFast;
  /// When set, step (2) applies these annotations instead of running OWL's
  /// report-guided classifier — the hook for plugging in a different
  /// adhoc-sync front end (e.g. the SyncFinder-like static scanner, used by
  /// bench/ext_syncfinder for the §5.1 precision comparison). Not owned.
  const race::AnnotationSet* preset_annotations = nullptr;
  /// Static may-race prescreen consulted by the detection substrate
  /// (DESIGN.md §9). kOff (default) skips nothing; kOn prunes shadow work
  /// for accesses the whole-module analysis proved race-free; kAudit runs
  /// full detection and counts pruned-but-raced soundness violations
  /// (PipelineResult::audit.prescreen — must stay zero).
  support::AuditMode prescreen = support::AuditMode::kOff;
  /// Sync-preserving race prediction (DESIGN.md §12). kOff (default)
  /// changes nothing; kOn hands the race verifier only predicted-feasible
  /// candidates plus replay-confirmed predicted races the observed
  /// schedules never exhibited; kAudit keeps the exhaustive path and
  /// cross-checks the predictor's verdicts against what the verifier
  /// confirmed (PipelineResult::audit.predict — must stay zero).
  support::AuditMode predict = support::AuditMode::kOff;
  /// Memory-aware value flow for Algorithm 1 (DESIGN.md §14). kOff
  /// (default) keeps the register-only walk, byte-identical everywhere;
  /// kOn builds the module value-flow graph and extends the walk across
  /// store→load may-alias edges; kAudit additionally records every
  /// runtime store→load dependence the detection schedules exhibit and
  /// cross-checks it against the static edge set
  /// (PipelineResult::audit.vuln_flow — must stay zero).
  support::AuditMode vuln_flow = support::AuditMode::kOff;
  bool enable_race_verifier = true;     ///< off for kernels (paper §8.3)
  bool enable_vuln_verifier = true;
  unsigned race_verifier_attempts = 3;
  unsigned vuln_verifier_attempts = 8;
  vuln::VulnerabilityAnalyzer::Mode analyzer_mode =
      vuln::VulnerabilityAnalyzer::Mode::kDirected;
  /// Concurrency checker suite beyond data races (DESIGN.md §11): deadlock,
  /// atomicity, lock-mismatch, condition-variable misuse. All off by
  /// default — with every checker off the pipeline's output is
  /// byte-identical to a build without the suite.
  checkers::CheckerOptions checkers;
  /// Automated race repair (DESIGN.md §13). Off by default — with repair
  /// off every output is byte-identical to a build without the stage. The
  /// stage never enables itself recursively: verification pipelines the
  /// repair engine spawns run with this reset to the default.
  repair::RepairOptions repair;

  // --- resilience layer ---
  StageBudgets stage_budgets;          ///< per-stage deadlines/step budgets
  /// Retry policy for the schedule-dependent stages (detection re-runs,
  /// racing-moment capture, vulnerability verification): seed rotation +
  /// exponential budget growth per retry.
  support::RetryPolicy retry;
  /// Deterministic fault-injection harness; null disables injection. Not
  /// owned; must outlive the pipeline run.
  support::FaultInjector* fault_injector = nullptr;
  /// Keep reports the race verifier could not process (livelock/budget) in
  /// the surviving set instead of silently eliminating them. Conservative
  /// for security: degradation must not hide a potential attack.
  bool keep_unverified_on_degradation = true;

  // --- parallel execution ---
  /// Worker threads for run_many's target fan-out: 1 = in-caller
  /// sequential loop, 0 = hardware_concurrency, N = a pool of N. Results
  /// are byte-identical for every value — each target's schedules derive
  /// from its own seed (splittable support::Rng streams, see DESIGN.md),
  /// results are collected in input order, and fault injection forks per
  /// target — so jobs changes wall-clock only.
  unsigned jobs = 1;
  /// Shards the race verifier's schedule-exploration attempts across this
  /// pool (not owned; null disables). Applies to Pipeline::run; run_many
  /// does not forward it to its workers (target-level parallelism already
  /// saturates the pool, and two nested fan-outs oversubscribe).
  support::ThreadPool* verifier_pool = nullptr;
  /// Concurrent-safe per-stage wall-clock aggregation (not owned; may be
  /// null). Workers from every target record into the same instance.
  StageTimings* stage_timings = nullptr;

  // --- observability ---
  /// When non-empty, run_many writes a run manifest (core/manifest.hpp:
  /// inputs, options, seeds, StageCounts, metrics snapshot) here after the
  /// sweep; a write failure degrades the driver, not the results.
  std::string manifest_path;
  /// Tool label recorded in the manifest ("owl_cli", "bench:table2", ...).
  std::string manifest_tool = "pipeline";
};

struct PipelineResult {
  std::string target_name;
  StageCounts counts;
  ReportStore store;
  /// Vulnerability reports (vulnerable input hints) per surviving race.
  std::vector<vuln::ExploitReport> exploits;
  /// Exploits whose site the dynamic verifier reached.
  std::vector<ConcurrencyAttack> attacks;
  /// Checker-suite findings (empty unless checkers were enabled), sorted
  /// into BugReportMgr's deterministic order.
  std::vector<checkers::BugReport> checker_findings;
  /// Repair-stage outcome (status empty unless the stage ran).
  repair::RepairReport repair;
  /// Soundness violations each audit mode found on this target; zero
  /// unless the matching option is kAudit. The exit-3 verdict is computed
  /// from these, so it holds for any number of runs in one process.
  struct AuditViolations {
    std::uint64_t prescreen = 0;  ///< pruned-but-raced accesses
    std::uint64_t predict = 0;    ///< verified races called infeasible
    std::uint64_t vuln_flow = 0;  ///< runtime store->load pairs unexplained
  } audit;
  double total_seconds = 0.0;

  /// Attacks with a realized security consequence.
  std::size_t confirmed_attacks() const noexcept;
  /// One or more stages degraded (see counts.failures).
  bool degraded() const noexcept { return counts.degraded(); }
};

class Pipeline {
 public:
  Pipeline() : Pipeline(PipelineOptions{}) {}
  explicit Pipeline(PipelineOptions options) : options_(std::move(options)) {}

  /// Runs the Fig. 3 stages, and the optional stages around them, on one
  /// target. Never throws: every stage runs under one stage runner
  /// (pipeline.cpp), so a stage failure (exception, livelock, stall,
  /// budget exhaustion) is retried per the RetryPolicy where that makes
  /// sense, then absorbed as a FailureRecord on the result's StageCounts
  /// and the remaining stages run on best-effort inputs.
  PipelineResult run(const PipelineTarget& target) const;

  /// Multi-target driver with per-target fault isolation: one result per
  /// target in input order; a target that fails catastrophically (even
  /// outside run()'s own isolation, e.g. a throwing machine factory)
  /// yields a driver-stage FailureRecord instead of sinking the whole run.
  ///
  /// Targets execute on `options().jobs` workers. Results are identical
  /// for any jobs value: every target is self-contained (own seed, own
  /// module, own machines), each worker runs against a per-target fork of
  /// the fault injector (forks are absorbed back in input order), and
  /// results land in pre-assigned slots. Note the fork semantics: a
  /// FaultPlan's `count`/dilution state is scoped per target here, even
  /// with jobs=1 — target-scoped plans (the common case) are unaffected.
  std::vector<PipelineResult> run_many(
      const std::vector<PipelineTarget>& targets) const;

  const PipelineOptions& options() const noexcept { return options_; }

 private:
  PipelineOptions options_;
};

/// Canonical, deterministic text form of a result for differential
/// comparison (tests/parallel_equivalence_test.cpp, scripts/ci.sh's
/// jobs=1-vs-jobs=4 gate). Includes everything behavioral — counts,
/// failure records, every stage's reports, exploit hints, attacks —
/// and excludes the wall-clock fields (total_seconds,
/// avg_analysis_seconds, FailureRecord::wall_seconds), which vary run
/// to run even when behavior is identical.
std::string serialize_result(const PipelineResult& result);

}  // namespace owl::core
