#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "analysis/static_info.hpp"
#include "core/manifest.hpp"
#include "race/atomicity_detector.hpp"
#include "race/predict/sp_predictor.hpp"
#include "repair/engine.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"
#include "sync/annotator.hpp"
#include "vuln/hint.hpp"

namespace owl::core {

namespace {

using support::FailureCause;
using support::FaultInjector;
using support::FaultKind;
using support::PipelineStage;

/// Records runtime store→load dependences during detection runs
/// (--vuln-flow audit): per-address last writer, then (writer, reader)
/// instruction pairs on every read. Address maps reset per machine run —
/// simulated addresses are only meaningful within one execution.
class FlowAuditRecorder final : public interp::Observer {
 public:
  void begin_run() { last_write_.clear(); }

  void on_access(const Access& access, const interp::Machine&) override {
    if (access.instr == nullptr) return;
    if (access.is_write) {
      last_write_[access.addr] = access.instr;
      return;
    }
    const auto it = last_write_.find(access.addr);
    if (it != last_write_.end() && it->second != access.instr) {
      pairs_.insert({it->second, access.instr});
    }
  }
  void on_sync(const Sync&, const interp::Machine&) override {}

  /// Observed (writer, reader) instruction pairs, deduplicated.
  const std::set<std::pair<const ir::Instruction*, const ir::Instruction*>>&
  pairs() const noexcept {
    return pairs_;
  }

 private:
  std::unordered_map<interp::Address, const ir::Instruction*> last_write_;
  std::set<std::pair<const ir::Instruction*, const ir::Instruction*>> pairs_;
};

// The prescreen treats integer constants below this limit as null-page
// values that can never alias a real object; the detector's dynamic
// re-check uses the interpreter's actual guard. They must agree.
static_assert(analysis::kSafeConstantLimit ==
                  static_cast<std::int64_t>(interp::kNullGuard),
              "prescreen constant-literal limit out of sync with the "
              "interpreter's null guard page");

void record_failure(StageCounts& counts, PipelineStage stage,
                    FailureCause cause, std::string detail,
                    std::uint64_t steps_spent = 0, double wall_seconds = 0.0,
                    unsigned retries = 0) {
  support::FailureRecord record{stage,       cause,        std::move(detail),
                                steps_spent, wall_seconds, retries};
  OWL_LOG(kWarn) << "pipeline stage degraded: " << record.to_string();
  support::metrics()
      .counter("pipeline.failures." +
               std::string(support::pipeline_stage_name(stage)))
      .inc();
  counts.failures.push_back(std::move(record));
}

/// Attributes non-throwing injected faults (stalls, truncation) observed
/// since begin_stage to the stage's accounting, so a fault-injection run
/// reports exactly what it degraded.
void attribute_injected(FaultInjector* injector, StageCounts& counts,
                        PipelineStage stage) {
  if (injector == nullptr) return;
  if (injector->fired_in_stage(FaultKind::kSchedulerStall)) {
    record_failure(counts, stage, FailureCause::kSchedulerStall,
                   "injected scheduler stall burned the schedule");
  }
  if (injector->fired_in_stage(FaultKind::kTruncatedEvents)) {
    record_failure(counts, stage, FailureCause::kTruncatedEvents,
                   "injected truncation dropped observer events");
  }
}

/// What one unit of stage work left behind when every attempt threw.
struct UnitFailure {
  std::string what;
  unsigned retries = 0;  ///< attempts beyond the first
};

/// One target's in-flight state: what earlier stages left for later ones.
struct RunState {
  const PipelineOptions& options;
  const PipelineTarget& target;
  PipelineResult& result;
  FaultInjector* injector;

  std::optional<analysis::ModuleStatic> module_static;
  race::PrescreenView prescreen;
  std::optional<analysis::ValueFlowGraph> value_flow;
  FlowAuditRecorder flow_recorder;
  race::predict::TraceRecorder trace_recorder;
  std::vector<race::RaceReport> raw;
  std::vector<race::RaceReport> reduced;
  std::vector<race::RaceReport> survivors;
  std::optional<race::predict::PredictOutcome> predict_outcome;
  /// For each of result.exploits, the index of the race it came from.
  std::vector<std::size_t> exploit_race;

  /// Event-trace capture for the predict stage (DESIGN.md §12). Atomicity
  /// targets are out of SP theory's scope and never record.
  bool predict_active() const noexcept {
    return options.predict != support::AuditMode::kOff &&
           target.detector != DetectorKind::kAtomicity &&
           target.module != nullptr;
  }
  race::predict::TraceRecorder* recorder() noexcept {
    return predict_active() ? &trace_recorder : nullptr;
  }
  /// Runtime store→load capture for --vuln-flow audit; needs the graph.
  FlowAuditRecorder* flow_audit() noexcept {
    return options.vuln_flow == support::AuditMode::kAudit &&
                   value_flow.has_value()
               ? &flow_recorder
               : nullptr;
  }
};

/// Runs one unit of a stage's work (a detection pass, the adhoc-sync
/// classification, one report's verification or Algorithm 1 walk, one
/// exploit's verification) for up to `attempts` attempts: start(attempt),
/// a fault probe, then work(attempt); a throw moves on to the next
/// attempt. Returns the last error when every attempt threw.
template <typename Start, typename Work>
std::optional<UnitFailure> run_unit(RunState& state, unsigned attempts,
                                    Start&& start, Work&& work) {
  for (unsigned attempt = 0;; ++attempt) {
    start(attempt);
    try {
      if (state.injector != nullptr) state.injector->maybe_throw();
      work(attempt);
      state.result.counts.retries_used += attempt;
      return std::nullopt;
    } catch (const std::exception& error) {
      if (attempt + 1 >= attempts) {
        state.result.counts.retries_used += attempt;
        return UnitFailure{error.what(), attempt};
      }
      OWL_LOG(kInfo) << state.target.name << ": attempt " << attempt
                     << " failed (" << error.what()
                     << "), retrying with rotated seed";
    }
  }
}

template <typename Work>
std::optional<UnitFailure> run_unit(RunState& state, unsigned attempts,
                                    Work&& work) {
  return run_unit(state, attempts, [](unsigned) {}, work);
}

/// What is left of a stage's step budget, as one unit's allowance.
support::BudgetSpec what_is_left(const support::Budget& stage_budget) {
  support::BudgetSpec spec;
  spec.steps = stage_budget.remaining_steps() == UINT64_MAX
                   ? 0
                   : stage_budget.remaining_steps();
  return spec;
}

/// One detection pass over the target's schedules (no retry wrapper);
/// throws on detector faults. `annotations` is null for step (1).
std::vector<race::RaceReport> detect_once(
    RunState& state, const race::AnnotationSet* annotations,
    std::uint64_t base_seed, support::Budget& budget) {
  const PipelineTarget& target = state.target;
  race::predict::TraceRecorder* recorder = state.recorder();
  FlowAuditRecorder* flow_audit = state.flow_audit();
  std::vector<race::RaceReport> merged;
  // Each pass starts a fresh trace set: the predict stage reasons over the
  // final (annotated, when there is one) pass — the same report stream the
  // verifier sees.
  if (recorder != nullptr) recorder->begin_pass(annotations);
  for (unsigned i = 0; i < target.detection_schedules; ++i) {
    if (const auto cause = budget.exhausted_by()) {
      record_failure(state.result.counts, PipelineStage::kDetection, *cause,
                     str_format("%u of %u schedules skipped",
                                target.detection_schedules - i,
                                target.detection_schedules),
                     budget.steps_spent(), budget.elapsed_seconds());
      break;
    }
    TRACE_SPAN("detect-schedule", target.name);
    support::metrics().counter("pipeline.detection_schedules").inc();
    std::unique_ptr<interp::Machine> machine = target.factory();
    machine->set_fault_injector(state.injector);
    // §8.3 extension: an atomicity-violation detector feeding the same
    // report stream. Annotations do not apply to it (the triples are
    // already schedule-classified).
    std::optional<race::AtomicityDetector> atomicity;
    std::unique_ptr<race::TsanDetector> detector;
    std::unique_ptr<interp::Scheduler> scheduler =
        std::make_unique<interp::RandomScheduler>(base_seed + i);
    if (target.detector == DetectorKind::kAtomicity) {
      machine->add_observer(&atomicity.emplace());
    } else if (target.detector == DetectorKind::kSki) {
      detector = std::make_unique<race::SkiDetector>(
          annotations, state.options.detector_impl, state.prescreen);
      scheduler = std::make_unique<interp::PctScheduler>(
          base_seed + i, /*depth=*/3, /*expected_steps=*/20000);
    } else {
      detector = std::make_unique<race::TsanDetector>(
          annotations, /*ski_watch_mode=*/false, state.options.detector_impl,
          state.prescreen);
    }
    if (detector != nullptr) machine->add_observer(detector.get());
    if (recorder != nullptr) {
      machine->add_observer(recorder);
      recorder->begin_run();
    }
    if (flow_audit != nullptr) {
      machine->add_observer(flow_audit);
      flow_audit->begin_run();
    }
    const interp::RunResult run = machine->run(*scheduler);
    if (recorder != nullptr) recorder->finish_run(*machine);
    budget.charge_steps(run.steps);
    if (atomicity.has_value()) {
      std::vector<race::RaceReport> converted;
      for (const race::AtomicityReport& report : atomicity->take_reports()) {
        converted.push_back(report.to_race_report());
      }
      race::merge_reports(merged, std::move(converted));
      continue;
    }
    // Read before take_reports(), which flushes the counters to the
    // metrics registry and zeroes them.
    state.result.audit.prescreen +=
        detector->substrate_counters().prescreen_audit_violations;
    race::merge_reports(merged, detector->take_reports());
  }
  return merged;
}

/// Steps (1)/(2)'s detector runs as one retried unit. Every attempt
/// re-enters the detection stage in the injector — so the annotation
/// re-run probes as detection, and each attempt's probes count afresh —
/// with a fresh budget and a rotated seed; the non-throwing faults of the
/// attempt that succeeded are attributed to detection. nullopt means
/// every attempt threw (the caller picks the fallback).
std::optional<std::vector<race::RaceReport>> detect(
    RunState& state, const race::AnnotationSet* annotations) {
  const support::RetryPolicy& retry = state.options.retry;
  support::Budget budget;
  std::vector<race::RaceReport> merged;
  const std::optional<UnitFailure> failure = run_unit(
      state, retry.max_attempts(),
      [&](unsigned attempt) {
        if (state.injector != nullptr) {
          state.injector->begin_stage(PipelineStage::kDetection);
        }
        budget = support::Budget(
            retry.budget_for(state.options.stage_budgets.detection, attempt));
      },
      [&](unsigned attempt) {
        merged = detect_once(state, annotations,
                             retry.seed_for(state.target.seed, attempt),
                             budget);
        attribute_injected(state.injector, state.result.counts,
                           PipelineStage::kDetection);
      });
  if (!failure.has_value()) return merged;
  record_failure(state.result.counts, PipelineStage::kDetection,
                 FailureCause::kException, failure->what,
                 budget.steps_spent(), budget.elapsed_seconds(),
                 failure->retries);
  return std::nullopt;
}

// ---- the stage bodies, in pipeline order ----

/// Step (0): whole-module static analysis. Computed once per target, in
/// every mode: the resolved indirect calls feed Algorithm 1, and the
/// static counters flushed after the run are part of the behavioral
/// snapshot (mode-independent, so the prescreen differential gate can
/// byte-diff snapshots across modes). When it fails the run goes on
/// without it: no prescreen, no checkers, value flow or repair, and
/// Algorithm 1 without resolved callptr edges.
void static_analysis(RunState& state) {
  const analysis::ModuleStatic& facts =
      state.module_static.emplace(*state.target.module);
  if (!facts.prescreen.pruning_enabled()) {
    OWL_LOG(kInfo) << state.target.name << ": prescreen pruning disabled ("
                   << facts.prescreen.disable_reason() << ")";
  } else if (state.options.prescreen != support::AuditMode::kOff) {
    state.prescreen.mode = state.options.prescreen;
    state.prescreen.no_race = &facts.prescreen.no_race();
  }
}

/// Checker suite (DESIGN.md §11): static detection of deadlock /
/// atomicity / lock-mismatch / CV-misuse bugs over the step-(0) facts,
/// with lock-order cycles confirmed by scheduler replay.
void checkers_stage(RunState& state) {
  const checkers::AnalysisContext ctx(*state.target.module,
                                      *state.module_static,
                                      state.target.factory);
  PipelineResult& result = state.result;
  result.checker_findings = checkers::run_checkers(state.options.checkers, ctx);
  result.counts.checker_findings = result.checker_findings.size();
  OWL_LOG(kInfo) << state.target.name << ": "
                 << result.checker_findings.size() << " checker finding(s) ["
                 << state.options.checkers.canonical() << "]";
}

/// Value-flow graph (--vuln-flow on/audit, DESIGN.md §14). Off-mode runs
/// never construct the graph, never emit its metrics, and stay
/// byte-identical; a failed build leaves Algorithm 1 register-only.
void value_flow_stage(RunState& state) {
  state.value_flow.emplace(*state.target.module,
                           state.module_static->points_to,
                           state.module_static->resolved_calls);
}

/// Step (1): raw detection.
void detection(RunState& state) {
  state.raw = detect(state, nullptr).value_or(std::vector<race::RaceReport>{});
  state.result.counts.raw_reports = state.raw.size();
  state.result.store.set_stage(Stage::kRawDetection, state.raw);
  OWL_LOG(kInfo) << state.target.name << ": " << state.raw.size()
                 << " raw race reports";
}

/// Step (2): adhoc-sync annotation (preset or classified from the raw
/// reports) and a detection re-run under it; a failed classification or
/// re-run keeps the raw reports.
void annotation(RunState& state) {
  StageCounts& counts = state.result.counts;
  const race::AnnotationSet* annotations = state.options.preset_annotations;
  std::optional<sync::AnnotationOutcome> outcome;
  if (annotations != nullptr) {
    counts.adhoc_syncs = annotations->pair_count();
  } else if (state.options.enable_adhoc_annotation) {
    if (const auto failure = run_unit(state, 1, [&](unsigned) {
          outcome = sync::annotate_adhoc_syncs(*state.target.module,
                                               state.raw);
        })) {
      record_failure(counts, PipelineStage::kAnnotation,
                     FailureCause::kException, failure->what);
    }
    if (outcome.has_value()) {
      counts.adhoc_syncs = outcome->unique_adhoc_syncs;
      annotations = &outcome->annotations;
    }
  }
  std::optional<std::vector<race::RaceReport>> rerun;
  if (annotations != nullptr && !annotations->empty()) {
    rerun = detect(state, annotations);
  }
  state.reduced = rerun.has_value() ? std::move(*rerun) : std::move(state.raw);
  counts.after_annotation = state.reduced.size();
  state.result.store.set_stage(Stage::kAfterAnnotation, state.reduced);
  OWL_LOG(kInfo) << state.target.name << ": " << state.reduced.size()
                 << " reports after annotation (" << counts.adhoc_syncs
                 << " adhoc syncs)";
}

/// Sync-preserving race prediction (DESIGN.md §12). Decides, from the
/// traces the detection schedules already produced, which reduced
/// reports any sync-preserving reordering could co-enable — and which
/// unreported pairs could race. kOn prunes the verifier's input to the
/// feasible set and adds the predicted-new candidates (each still
/// subject to replay confirmation); kAudit computes verdicts only and
/// cross-checks them after verification. A predictor failure degrades to
/// exhaustive behavior: nothing pruned, nothing added.
void predict(RunState& state) {
  StageCounts& counts = state.result.counts;
  const race::predict::SpPredictor predictor;
  const race::predict::PredictOutcome& outcome =
      state.predict_outcome.emplace(predictor.analyze(
          state.target.module, state.trace_recorder.traces(), state.reduced));
  counts.predict_candidates = outcome.candidates;
  const auto infeasible = [&outcome](const race::RaceReport& report) {
    return outcome.verdict_for(report.key()) ==
           race::predict::Feasibility::kInfeasible;
  };
  counts.predict_pruned = static_cast<std::size_t>(
      std::count_if(state.reduced.begin(), state.reduced.end(), infeasible));
  if (state.options.predict == support::AuditMode::kOn) {
    std::erase_if(state.reduced, infeasible);
    state.reduced.insert(state.reduced.end(), outcome.predicted_new.begin(),
                         outcome.predicted_new.end());
    std::sort(state.reduced.begin(), state.reduced.end(), race::report_order);
    // Every pruned report would have burned its full attempt budget (an
    // infeasible pair never verifies, and failure has no early exit) —
    // that is the exploration this stage saves.
    counts.predict_schedules_avoided =
        counts.predict_pruned * state.options.race_verifier_attempts;
  }
  OWL_LOG(kInfo) << state.target.name << ": predict checked "
                 << outcome.candidates << " candidate pair(s), "
                 << counts.predict_pruned << " infeasible, "
                 << outcome.predicted_new.size() << " predicted-new";
}

/// Step (3): dynamic race verification, one retried unit per report.
/// Reports a deadline or a livelock leaves unverified pass through
/// (conservative: degradation must not hide attacks); predicted
/// candidates never do — they are hypotheses, not observations.
void race_verification(RunState& state) {
  const PipelineOptions& options = state.options;
  StageCounts& counts = state.result.counts;
  std::vector<race::RaceReport>& reduced = state.reduced;
  support::Budget stage_budget(options.stage_budgets.race_verification);
  std::size_t livelocked_reports = 0;
  std::size_t passed_through = 0;
  bool exception_recorded = false;
  const auto pass_through = [&](const race::RaceReport& report) {
    if (!options.keep_unverified_on_degradation || report.predicted) {
      return false;
    }
    state.survivors.push_back(report);
    return true;
  };
  for (std::size_t r = 0; r < reduced.size(); ++r) {
    race::RaceReport& report = reduced[r];
    if (const auto cause = stage_budget.exhausted_by()) {
      record_failure(counts, PipelineStage::kRaceVerification, *cause,
                     str_format("%zu of %zu reports passed through "
                                "unverified",
                                reduced.size() - r, reduced.size()),
                     stage_budget.steps_spent(),
                     stage_budget.elapsed_seconds());
      for (std::size_t k = r; k < reduced.size(); ++k) {
        pass_through(reduced[k]);
      }
      break;
    }
    verify::RaceVerifyResult vr;
    const auto failure = run_unit(
        state, options.retry.max_attempts(), [&](unsigned attempt) {
          verify::RaceVerifier::Options vopts;
          vopts.max_attempts = options.race_verifier_attempts;
          vopts.base_seed =
              options.retry.seed_for(state.target.seed * 7919 + 13, attempt);
          vopts.fault_injector = state.injector;
          // Schedule-exploration sharding: the verifier itself falls back
          // to the sequential loop whenever a budget or the injector makes
          // attempts order-dependent.
          vopts.pool = options.verifier_pool;
          vopts.budget =
              options.retry.budget_for(what_is_left(stage_budget), attempt);
          vr = verify::RaceVerifier(vopts).verify(report, state.target.factory);
        });
    if (failure.has_value()) {
      if (!exception_recorded) {
        // One record per stage; repeating it per report is noise.
        record_failure(counts, PipelineStage::kRaceVerification,
                       FailureCause::kException, failure->what, 0, 0.0,
                       failure->retries);
        exception_recorded = true;
      }
      if (pass_through(report)) ++passed_through;
      continue;
    }
    stage_budget.charge_steps(vr.steps_spent);
    if (vr.verified) {
      state.survivors.push_back(report);
    } else if (vr.livelocked || vr.budget_exhausted) {
      ++livelocked_reports;
      if (pass_through(report)) ++passed_through;
    }
    // else: cleanly eliminated (the R.V.E. path).
  }
  if (livelocked_reports > 0) {
    record_failure(
        counts, PipelineStage::kRaceVerification, FailureCause::kLivelock,
        str_format("%zu report(s) livelocked or ran out of budget; %zu "
                   "passed through unverified",
                   livelocked_reports, passed_through),
        stage_budget.steps_spent(), stage_budget.elapsed_seconds());
  }
  // Elimination is counted against the *detector's* reduced set, so the
  // Table 3 column means the same thing in every predict mode: a report
  // the predictor pruned counts as eliminated (the verifier would have
  // eliminated it dynamically), while a confirmed predicted-new report
  // is an addition, not a survivor of reduction.
  std::size_t detector_survivors = 0;
  for (const race::RaceReport& report : state.survivors) {
    if (!report.predicted) ++detector_survivors;
    else ++counts.predict_new_confirmed;
  }
  counts.verifier_eliminated =
      counts.after_annotation >= detector_survivors
          ? counts.after_annotation - detector_survivors
          : 0;
}

/// Settles step (3)'s output whether the verifier ran, threw or is off:
/// the surviving set, its Table 3 count, and the audits that cross-check
/// against it.
void settle_survivors(RunState& state) {
  PipelineResult& result = state.result;
  if (!result.counts.ran(PipelineStage::kRaceVerification)) {
    // Without the verifier there is no replay confirmation, so predicted
    // candidates are dropped rather than reported as observations.
    for (race::RaceReport& report : state.reduced) {
      if (!report.predicted) state.survivors.push_back(std::move(report));
    }
  }
  result.counts.remaining = state.survivors.size();
  result.store.set_stage(Stage::kAfterRaceVerifier,
                         std::move(state.survivors));
  OWL_LOG(kInfo) << state.target.name << ": " << result.counts.remaining
                 << " verified races remain";

  // Audit cross-check: a replay-confirmed data race the predictor called
  // infeasible falsifies the pruning verdict — with --predict on that race
  // would have been lost. A non-zero count exits 3 from owl_cli and
  // owl_served.
  if (state.options.predict == support::AuditMode::kAudit &&
      state.predict_outcome.has_value()) {
    for (const race::RaceReport& report :
         result.store.stage(Stage::kAfterRaceVerifier)) {
      if (report.kind == race::ReportKind::kDataRace && report.verified &&
          state.predict_outcome->verdict_for(report.key()) ==
              race::predict::Feasibility::kInfeasible) {
        ++result.audit.predict;
      }
    }
    support::metrics().advisory("predict.audit_violations")
        .inc(result.audit.predict);
  }

  // Flow-audit cross-check: every store→load dependence the detection
  // schedules actually exhibited must be explained by a static mem edge
  // (or flagged unknown on either side). An uncovered pair means the
  // value-flow graph would have missed a real memory-mediated propagation
  // — a soundness violation. A non-zero count exits 3, like the
  // prescreen and predict audits.
  if (const FlowAuditRecorder* flow_audit = state.flow_audit()) {
    for (const auto& [writer, reader] : flow_audit->pairs()) {
      if (!state.value_flow->covers(writer, reader)) ++result.audit.vuln_flow;
    }
    support::metrics().advisory("vulnflow.audit_violations")
        .inc(result.audit.vuln_flow);
  }
}

/// Step (4): static vulnerability analysis (Algorithm 1), one unit per
/// surviving race.
void vuln_analysis(RunState& state) {
  PipelineResult& result = state.result;
  vuln::VulnerabilityAnalyzer::Options aopts;
  aopts.mode = state.options.analyzer_mode;
  if (state.module_static.has_value()) {
    aopts.resolved_indirect = &state.module_static->resolved_calls;
  }
  if (state.value_flow.has_value()) aopts.value_flow = &*state.value_flow;
  const vuln::VulnerabilityAnalyzer analyzer(*state.target.module, aopts);
  const std::vector<race::RaceReport>& reports =
      result.store.stage(Stage::kAfterRaceVerifier);
  support::Budget budget(state.options.stage_budgets.vuln_analysis);
  double analysis_seconds = 0.0;
  std::size_t analysis_failures = 0;
  std::string analysis_error;
  for (std::size_t r = 0; r < reports.size(); ++r) {
    if (const auto cause = budget.exhausted_by()) {
      record_failure(result.counts, PipelineStage::kVulnAnalysis, *cause,
                     str_format("%zu of %zu reports unanalyzed",
                                reports.size() - r, reports.size()),
                     budget.steps_spent(), budget.elapsed_seconds());
      break;
    }
    if (const auto failure = run_unit(state, 1, [&](unsigned) {
          const vuln::VulnAnalysis analysis = analyzer.analyze(reports[r]);
          analysis_seconds += analysis.stats.seconds;
          result.exploits.insert(result.exploits.end(),
                                 analysis.exploits.begin(),
                                 analysis.exploits.end());
          state.exploit_race.resize(result.exploits.size(), r);
        })) {
      ++analysis_failures;
      analysis_error = failure->what;
    }
  }
  if (analysis_failures > 0) {
    record_failure(result.counts, PipelineStage::kVulnAnalysis,
                   FailureCause::kException,
                   str_format("%zu report(s) unanalyzable: %s",
                              analysis_failures, analysis_error.c_str()));
  }
  result.counts.vulnerability_reports = result.exploits.size();
  result.counts.avg_analysis_seconds =
      reports.empty()
          ? 0.0
          : analysis_seconds / static_cast<double>(reports.size());
  OWL_LOG(kInfo) << state.target.name << ": " << result.exploits.size()
                 << " vulnerability reports";
}

/// Step (5): dynamic vulnerability verification, one retried unit per
/// exploit candidate.
void vuln_verification(RunState& state) {
  const PipelineOptions& options = state.options;
  const PipelineTarget& target = state.target;
  PipelineResult& result = state.result;
  const race::MachineFactory& factory =
      target.exploit_factory ? target.exploit_factory : target.factory;
  const std::vector<race::RaceReport>& reports =
      result.store.stage(Stage::kAfterRaceVerifier);
  support::Budget stage_budget(options.stage_budgets.vuln_verification);
  std::size_t livelocked_exploits = 0;
  bool exception_recorded = false;
  for (std::size_t c = 0; c < result.exploits.size(); ++c) {
    const vuln::ExploitReport& exploit = result.exploits[c];
    const race::RaceReport& race = reports[state.exploit_race[c]];
    if (const auto cause = stage_budget.exhausted_by()) {
      record_failure(result.counts, PipelineStage::kVulnVerification, *cause,
                     str_format("%zu of %zu exploit candidates unverified",
                                result.exploits.size() - c,
                                result.exploits.size()),
                     stage_budget.steps_spent(),
                     stage_budget.elapsed_seconds());
      break;
    }
    verify::VulnVerifyResult vr;
    const auto failure = run_unit(
        state, options.retry.max_attempts(), [&](unsigned attempt) {
          verify::VulnVerifier::Options vopts;
          vopts.max_attempts = options.vuln_verifier_attempts;
          vopts.base_seed =
              options.retry.seed_for(target.seed * 104729 + 7, attempt);
          vopts.thread_order = target.thread_order;
          vopts.fault_injector = state.injector;
          vopts.budget =
              options.retry.budget_for(what_is_left(stage_budget), attempt);
          vr = verify::VulnVerifier(vopts).verify(exploit, factory, &race);
        });
    if (failure.has_value()) {
      if (!exception_recorded) {
        record_failure(result.counts, PipelineStage::kVulnVerification,
                       FailureCause::kException, failure->what, 0, 0.0,
                       failure->retries);
        exception_recorded = true;
      }
      continue;
    }
    stage_budget.charge_steps(vr.steps_spent);
    if (vr.livelocked) ++livelocked_exploits;
    if (!vr.site_reached) continue;
    ConcurrencyAttack attack;
    attack.program = target.name;
    attack.race = race;
    attack.exploit = exploit;
    attack.verification = vr;
    result.attacks.push_back(std::move(attack));
  }
  if (livelocked_exploits > 0) {
    record_failure(result.counts, PipelineStage::kVulnVerification,
                   FailureCause::kLivelock,
                   str_format("%zu exploit session(s) livelocked",
                              livelocked_exploits),
                   stage_budget.steps_spent(),
                   stage_budget.elapsed_seconds());
  }
  OWL_LOG(kInfo) << target.name << ": " << result.attacks.size()
                 << " attack candidates reached their site, "
                 << result.confirmed_attacks() << " realized";
}

/// Automated race repair (DESIGN.md §13): synthesize candidate patches for
/// the confirmed races, verify each by re-running the pipeline machinery
/// on the patched module (race-freedom incl. --predict on, checker
/// differential, output equivalence), report the first winner. Nested
/// verification pipelines run with repair disabled — the stage never
/// recurses.
void repair_stage(RunState& state) {
  PipelineResult& result = state.result;
  std::vector<race::RaceReport> confirmed;
  for (const race::RaceReport& report :
       result.store.stage(Stage::kAfterRaceVerifier)) {
    if (report.verified) confirmed.push_back(report);
  }
  result.repair = repair::attempt_repair(state.target, state.options,
                                         *state.module_static, confirmed);
  OWL_LOG(kInfo) << state.target.name << ": repair " << result.repair.status
                 << " (" << result.repair.candidates_tried
                 << " candidate(s) tried)";
}

/// A repair stage that threw reports "unrepaired" with nothing tried.
void settle_repair(RunState& state) {
  PipelineResult& result = state.result;
  if (!result.counts.ran(PipelineStage::kRepair)) return;
  if (result.repair.status.empty()) result.repair.status = "unrepaired";
  result.counts.repair_status = result.repair.status;
  result.counts.repair_candidates = result.repair.candidates_tried;
}

/// One row of the stage table.
struct StageEntry {
  PipelineStage id;  ///< also names the stage's span and --timings row
  /// The Fig. 3 stages probe for faults per unit of work (run_unit); the
  /// others once, at entry.
  bool per_unit;
  bool (*enabled)(const RunState&);  ///< null: always runs
  void (*body)(RunState&);
  void (*settle)(RunState&);  ///< runs even if the stage threw or was off
};

/// The pipeline, in order. A stage that failed leaves its RunState facts
/// at their defaults for the rows below it.
constexpr StageEntry kStages[] = {
    {PipelineStage::kStaticAnalysis, false,
     [](const RunState& s) { return s.target.module != nullptr; },
     static_analysis, nullptr},
    {PipelineStage::kCheckers, false,
     [](const RunState& s) {
       return s.options.checkers.any() && s.module_static.has_value();
     },
     checkers_stage, nullptr},
    {PipelineStage::kValueFlow, false,
     [](const RunState& s) {
       return s.options.vuln_flow != support::AuditMode::kOff &&
              s.module_static.has_value();
     },
     value_flow_stage, nullptr},
    {PipelineStage::kDetection, true, nullptr, detection, nullptr},
    {PipelineStage::kAnnotation, true, nullptr, annotation, nullptr},
    {PipelineStage::kPredict, false,
     [](const RunState& s) { return s.predict_active(); }, predict, nullptr},
    {PipelineStage::kRaceVerification, true,
     [](const RunState& s) { return s.options.enable_race_verifier; },
     race_verification, settle_survivors},
    {PipelineStage::kVulnAnalysis, true, nullptr, vuln_analysis, nullptr},
    {PipelineStage::kVulnVerification, true,
     [](const RunState& s) { return s.options.enable_vuln_verifier; },
     vuln_verification, nullptr},
    {PipelineStage::kRepair, false,
     [](const RunState& s) {
       return s.options.repair.enabled && s.module_static.has_value();
     },
     repair_stage, settle_repair},
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The stage runner. An enabled stage gets its trace span, its ran bit,
/// its fault-injector context and (unless per-unit) its entry fault
/// probe; a throw out of its body becomes the stage's FailureRecord
/// instead of leaving Pipeline::run; its wall clock goes to --timings.
void run_stage(const StageEntry& stage, RunState& state) {
  if (stage.enabled == nullptr || stage.enabled(state)) {
    const std::string_view name = support::pipeline_stage_name(stage.id);
    const auto start = std::chrono::steady_clock::now();
    {
      TRACE_SPAN(name, state.target.name);
      state.result.counts.mark_ran(stage.id);
      if (state.injector != nullptr) state.injector->begin_stage(stage.id);
      try {
        if (!stage.per_unit && state.injector != nullptr) {
          state.injector->maybe_throw();
        }
        stage.body(state);
      } catch (const std::exception& error) {
        record_failure(state.result.counts, stage.id,
                       FailureCause::kException, error.what());
      }
    }
    if (state.options.stage_timings != nullptr) {
      state.options.stage_timings->record(name, seconds_since(start));
    }
  }
  if (stage.settle != nullptr) stage.settle(state);
}

}  // namespace

std::string_view detector_kind_name(DetectorKind kind) noexcept {
  switch (kind) {
    case DetectorKind::kTsan: return "tsan";
    case DetectorKind::kSki: return "ski";
    case DetectorKind::kAtomicity: return "atomicity";
  }
  return "unknown";
}

bool parse_detector_kind(std::string_view text, DetectorKind& out) noexcept {
  for (const DetectorKind kind :
       {DetectorKind::kTsan, DetectorKind::kSki, DetectorKind::kAtomicity}) {
    if (text == detector_kind_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

std::size_t PipelineResult::confirmed_attacks() const noexcept {
  std::size_t n = 0;
  for (const ConcurrencyAttack& attack : attacks) {
    if (attack.confirmed()) ++n;
  }
  return n;
}

PipelineResult Pipeline::run(const PipelineTarget& target) const {
  const auto t0 = std::chrono::steady_clock::now();
  TRACE_SPAN("target", target.name);
  support::metrics().counter("pipeline.targets").inc();
  PipelineResult result;
  result.target_name = target.name;
  if (options_.fault_injector != nullptr) {
    options_.fault_injector->begin_target(target.name);
  }
  RunState state{options_, target, result, options_.fault_injector};
  for (const StageEntry& stage : kStages) run_stage(stage, state);

  result.total_seconds = seconds_since(t0);
  if (options_.stage_timings != nullptr) {
    options_.stage_timings->record("target-total", result.total_seconds);
  }

  // Behavioral rollup into the global registry — the Table 2/3 column
  // cross-check the manifest snapshot carries. All counters: sums are
  // interleaving-independent, so jobs=N flushes identically to jobs=1.
  {
    const StageCounts& counts = result.counts;
    support::MetricsRegistry& registry = support::metrics();
    registry.counter("pipeline.reports.raw").inc(counts.raw_reports);
    registry.counter("pipeline.adhoc_syncs").inc(counts.adhoc_syncs);
    registry.counter("pipeline.reports.after_annotation")
        .inc(counts.after_annotation);
    registry.counter("pipeline.reports.verifier_eliminated")
        .inc(counts.verifier_eliminated);
    registry.counter("pipeline.reports.verified").inc(counts.remaining);
    registry.counter("pipeline.vulnerability_reports")
        .inc(counts.vulnerability_reports);
    registry.counter("pipeline.attacks.site_reached")
        .inc(result.attacks.size());
    registry.counter("pipeline.attacks.confirmed")
        .inc(result.confirmed_attacks());
    registry.counter("pipeline.retries").inc(counts.retries_used);
    if (counts.ran(PipelineStage::kCheckers)) {
      // Registered only when the stage ran: the metrics snapshot in the
      // manifest stays byte-identical to pre-suite runs with checkers off.
      registry.counter("pipeline.checker_findings")
          .inc(result.checker_findings.size());
    }
    if (counts.ran(PipelineStage::kPredict)) {
      // Same gating: predict-off snapshots carry no predict keys at all.
      registry.counter("predict.candidates").inc(counts.predict_candidates);
      registry.counter("predict.schedules_avoided")
          .inc(counts.predict_schedules_avoided);
      if (state.predict_outcome.has_value()) {
        registry.advisory("predict.closure_iterations")
            .inc(state.predict_outcome->closure_iterations);
      }
    }
    if (counts.ran(PipelineStage::kRepair)) {
      // Same gating: repair-off snapshots carry no repair keys at all.
      registry.counter("repair.candidates_tried")
          .inc(counts.repair_candidates);
      registry.counter("repair.repaired")
          .inc(result.repair.status == "repaired" ? 1 : 0);
    }
    if (state.value_flow.has_value()) {
      // Same gating: vuln-flow-off snapshots carry no valueflow keys.
      const analysis::ValueFlowGraph::Stats& vf = state.value_flow->stats();
      registry.counter("valueflow.nodes").inc(vf.nodes);
      registry.counter("valueflow.edges")
          .inc(vf.def_use_edges + vf.call_edges);
      registry.counter("valueflow.mem_edges").inc(vf.mem_edges);
    }
    registry.histogram("pipeline.raw_reports_per_target")
        .observe(counts.raw_reports);
    registry.wall_clock("pipeline.wall_seconds").add(result.total_seconds);
    if (state.module_static.has_value()) {
      registry.counter("callgraph.indirect_resolved")
          .inc(state.module_static->indirect_resolved_edges);
      registry.counter("prescreen.prunable_instructions")
          .inc(state.module_static->prescreen.no_race().size());
    }
  }
  return result;
}

std::vector<PipelineResult> Pipeline::run_many(
    const std::vector<PipelineTarget>& targets) const {
  std::vector<PipelineResult> results(targets.size());
  // Per-target forks of the shared injector: each worker probes only its
  // own fork, so the firing sequence a target observes is a function of
  // that target alone — the load-bearing fact behind jobs=1 and jobs=N
  // producing identical results under fault injection.
  std::vector<std::unique_ptr<support::FaultInjector>> forks(targets.size());

  const auto run_one = [&](std::size_t index) {
    const PipelineTarget& target = targets[index];
    PipelineOptions local = options_;
    // Target-level parallelism already feeds the workers; nesting the
    // verifier's attempt sharding on top would oversubscribe.
    if (local.jobs != 1) local.verifier_pool = nullptr;
    if (options_.fault_injector != nullptr) {
      forks[index] = std::make_unique<support::FaultInjector>(
          options_.fault_injector->fork());
      local.fault_injector = forks[index].get();
    }
    try {
      results[index] = Pipeline(local).run(target);
    } catch (const std::exception& error) {
      // run() isolates its own stages; this catches failures outside them
      // (e.g. a throwing machine factory or a malformed module). The target
      // is reported degraded at the driver level and the run continues.
      PipelineResult failed;
      failed.target_name = target.name;
      record_failure(failed.counts, PipelineStage::kDriver,
                     FailureCause::kException, error.what());
      results[index] = std::move(failed);
    }
  };

  if (options_.jobs == 1 || targets.size() <= 1) {
    for (std::size_t i = 0; i < targets.size(); ++i) run_one(i);
  } else {
    support::ThreadPool pool(options_.jobs);
    pool.parallel_for(targets.size(), run_one);
  }

  // Merge fork accounting back in input order so events() reads as one
  // deterministic log no matter how execution interleaved.
  if (options_.fault_injector != nullptr) {
    for (const auto& fork : forks) {
      if (fork != nullptr) options_.fault_injector->absorb(*fork);
    }
  }

  if (!options_.manifest_path.empty()) {
    const std::string json =
        render_manifest(options_.manifest_tool, options_, targets, results);
    if (!write_manifest(options_.manifest_path, json)) {
      // An unwritable manifest must not degrade the results themselves —
      // it is observability, not behavior. Loud log, nothing else.
      OWL_LOG(kWarn) << "run manifest not written to "
                     << options_.manifest_path;
    }
  }
  return results;
}

std::string serialize_result(const PipelineResult& result) {
  std::string out = "=== target " + result.target_name + " ===\n";
  out += result.counts.serialize();
  out += result.store.canonical_dump();
  if (result.counts.ran(PipelineStage::kCheckers)) {
    out += str_format("[checker findings %zu]\n",
                      result.checker_findings.size());
    for (const checkers::BugReport& report : result.checker_findings) {
      out += report.to_string();
    }
  }
  if (result.counts.ran(PipelineStage::kRepair)) {
    // The patched module is folded in as a size + FNV-1a digest: repeat
    // runs and jobs=1-vs-N runs must synthesize byte-identical fixes, and
    // this pins that without dumping whole modules into the diff.
    std::uint64_t digest = 1469598103934665603ull;
    for (const char c : result.repair.patched_text) {
      digest ^= static_cast<unsigned char>(c);
      digest *= 1099511628211ull;
    }
    out += str_format(
        "[repair status=%s strategy=%s lock=%s candidates=%u fixed=%s "
        "patched_bytes=%zu patched_fnv=%016llx]\n",
        result.repair.status.c_str(), result.repair.strategy.c_str(),
        result.repair.lock.c_str(), result.repair.candidates_tried,
        result.repair.fixed_module.c_str(),
        result.repair.patched_text.size(),
        static_cast<unsigned long long>(digest));
    for (const repair::RepairedRace& race : result.repair.races) {
      out += str_format("repair-race: %s %s <-> %s\n", race.object.c_str(),
                        race.first_loc.c_str(), race.second_loc.c_str());
    }
  }
  out += str_format("[exploits %zu]\n", result.exploits.size());
  for (const vuln::ExploitReport& exploit : result.exploits) {
    out += vuln::render_hint(exploit);
  }
  out += str_format("[attacks %zu, confirmed %zu]\n", result.attacks.size(),
                    result.confirmed_attacks());
  for (const ConcurrencyAttack& attack : result.attacks) {
    out += attack.to_string();
  }
  return out;
}

}  // namespace owl::core
