#include "layers.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "analysis/static_info.hpp"
#include "analysis/value_flow.hpp"
#include "checkers/analysis_context.hpp"
#include "core/render.hpp"
#include "race/predict/sp_predictor.hpp"
#include "repair/engine.hpp"
#include "support/strings.hpp"
#include "sync/annotator.hpp"

namespace perfbench {

using namespace owl;

double LayerTotals::attributed_seconds() const {
  double total = 0.0;
  for (const auto& [key, s] : seconds) {
    if (key != kParentSpan) total += s;
  }
  return total;
}

std::uint64_t count_instructions(const ir::Module& module) {
  std::uint64_t n = 0;
  for (const auto& function : module.functions()) {
    for (const auto& block : function->blocks()) n += block->size();
  }
  return n;
}

namespace {

std::string mismatch(const char* what, std::uint64_t traced,
                     std::uint64_t untraced) {
  return str_format("%s: traced %llu, untraced %llu", what,
                    static_cast<unsigned long long>(traced),
                    static_cast<unsigned long long>(untraced));
}

/// One detection pass over the target's schedules, as Pipeline::detect_once
/// runs it on its first attempt.
std::vector<race::RaceReport> detect_pass(
    const core::PipelineTarget& target, const core::PipelineOptions& options,
    const race::AnnotationSet* annotations,
    race::predict::TraceRecorder* recorder, LayerTotals& totals) {
  const Clock::time_point start = Clock::now();
  const std::uint64_t base_seed = options.retry.seed_for(target.seed, 0);
  std::vector<race::RaceReport> merged;
  std::uint64_t steps = 0;
  std::uint64_t accesses = 0;
  if (recorder != nullptr) recorder->begin_pass(annotations);
  for (unsigned i = 0; i < target.detection_schedules; ++i) {
    std::unique_ptr<interp::Machine> machine = target.factory();
    std::unique_ptr<race::TsanDetector> detector;
    std::unique_ptr<interp::Scheduler> scheduler;
    if (target.detector == core::DetectorKind::kSki) {
      detector = std::make_unique<race::SkiDetector>(annotations,
                                                     options.detector_impl);
      scheduler = std::make_unique<interp::PctScheduler>(
          base_seed + i, /*depth=*/3, /*expected_steps=*/20000);
    } else {
      detector = std::make_unique<race::TsanDetector>(
          annotations, /*ski_watch_mode=*/false, options.detector_impl);
      scheduler = std::make_unique<interp::RandomScheduler>(base_seed + i);
    }
    machine->add_observer(detector.get());
    if (recorder != nullptr) {
      machine->add_observer(recorder);
      recorder->begin_run();
    }
    const interp::RunResult run = machine->run(*scheduler);
    if (recorder != nullptr) recorder->finish_run(*machine);
    steps += run.steps;
    accesses += detector->substrate_counters().accesses;
    race::merge_reports(merged, detector->take_reports());
  }
  totals.time("race.detect_s", seconds_since(start));
  totals.count("interp.steps", steps);
  totals.count("race.detector_accesses", accesses);
  return merged;
}

}  // namespace

std::string trace_target(const core::PipelineTarget& target,
                         const core::PipelineOptions& options,
                         const core::PipelineResult& untraced,
                         bool print_reports, LayerTotals& totals) {
  if (target.module == nullptr ||
      target.detector == core::DetectorKind::kAtomicity ||
      options.prescreen != race::PrescreenMode::kOff ||
      options.preset_annotations != nullptr ||
      options.fault_injector != nullptr) {
    return "trace: unsupported target or option set";
  }
  const ir::Module& module = *target.module;
  const core::StageCounts& want = untraced.counts;
  const core::ReportStore& store = untraced.store;

  // ---- analysis: whole-module static facts ----
  Clock::time_point start = Clock::now();
  const analysis::ModuleStatic statics(module);
  totals.time("analysis.static_s", seconds_since(start));
  totals.count("analysis.points_to.propagations",
               statics.points_to.stats().propagations);
  totals.count("analysis.points_to.scc_merges",
               statics.points_to.stats().scc_merges);

  std::optional<analysis::ValueFlowGraph> value_flow;
  if (options.vuln_flow != analysis::ValueFlowMode::kOff) {
    start = Clock::now();
    value_flow.emplace(module, statics.points_to, statics.resolved_calls);
    totals.time("analysis.value_flow_s", seconds_since(start));
    totals.count("analysis.value_flow.mem_edges", value_flow->stats().mem_edges);
  }

  // ---- checkers ----
  if (options.checkers.any()) {
    start = Clock::now();
    const checkers::AnalysisContext ctx(module, statics, target.factory);
    const std::size_t findings =
        checkers::run_checkers(options.checkers, ctx).size();
    totals.time("checkers.run_s", seconds_since(start));
    totals.count("checkers.findings", findings);
    if (findings != want.checker_findings) {
      return mismatch("checker findings", findings, want.checker_findings);
    }
  }

  // ---- interp + race: raw detection ----
  const bool predict_active = options.predict != race::PredictMode::kOff;
  race::predict::TraceRecorder recorder;
  race::predict::TraceRecorder* rec = predict_active ? &recorder : nullptr;
  const std::vector<race::RaceReport> raw =
      detect_pass(target, options, nullptr, rec, totals);
  totals.count("race.raw_reports", raw.size());
  if (raw.size() != want.raw_reports) {
    return mismatch("raw reports", raw.size(), want.raw_reports);
  }

  // ---- sync: adhoc-sync annotation on the untraced raw reports ----
  std::size_t reduced_count = raw.size();
  if (options.enable_adhoc_annotation) {
    std::vector<race::RaceReport> reports =
        store.stage(core::Stage::kRawDetection);
    start = Clock::now();
    const sync::AnnotationOutcome outcome =
        sync::annotate_adhoc_syncs(module, reports);
    totals.time("sync.annotate_s", seconds_since(start));
    totals.count("sync.adhoc_syncs", outcome.unique_adhoc_syncs);
    if (outcome.unique_adhoc_syncs != want.adhoc_syncs) {
      return mismatch("adhoc syncs", outcome.unique_adhoc_syncs,
                      want.adhoc_syncs);
    }
    if (!outcome.annotations.empty()) {
      reduced_count =
          detect_pass(target, options, &outcome.annotations, rec, totals)
              .size();
    }
  }
  if (reduced_count != want.after_annotation) {
    return mismatch("reports after annotation", reduced_count,
                    want.after_annotation);
  }

  // ---- race/predict on the untraced reduced reports ----
  std::vector<race::RaceReport> reduced =
      store.stage(core::Stage::kAfterAnnotation);
  if (predict_active) {
    start = Clock::now();
    const race::predict::PredictOutcome outcome =
        race::predict::SpPredictor().analyze(&module, recorder.traces(),
                                             reduced);
    totals.time("race.predict_s", seconds_since(start));
    totals.count("race.predict.candidates", outcome.candidates);
    if (outcome.candidates != want.predict_candidates) {
      return mismatch("predict candidates", outcome.candidates,
                      want.predict_candidates);
    }
    if (options.predict == race::PredictMode::kOn) {
      std::vector<race::RaceReport> kept;
      for (race::RaceReport& report : reduced) {
        if (outcome.verdict_for(report.key()) !=
            race::predict::Feasibility::kInfeasible) {
          kept.push_back(std::move(report));
        }
      }
      kept.insert(kept.end(), outcome.predicted_new.begin(),
                  outcome.predicted_new.end());
      std::sort(kept.begin(), kept.end(), race::report_order);
      reduced = std::move(kept);
    }
  }

  // ---- verify: race verification ----
  if (options.enable_race_verifier) {
    verify::RaceVerifier::Options vopts;
    vopts.max_attempts = options.race_verifier_attempts;
    vopts.base_seed = options.retry.seed_for(target.seed * 7919 + 13, 0);
    const verify::RaceVerifier verifier(vopts);
    std::size_t survivors = 0;
    std::size_t detector_survivors = 0;  // survivors the detector reported
    std::size_t eliminated = 0;
    std::uint64_t attempts = 0;
    std::uint64_t steps = 0;
    start = Clock::now();
    for (race::RaceReport& report : reduced) {
      const verify::RaceVerifyResult vr = verifier.verify(report,
                                                          target.factory);
      attempts += vr.attempts;
      steps += vr.steps_spent;
      const bool degraded = vr.livelocked || vr.budget_exhausted;
      const bool survives =
          vr.verified || (degraded && options.keep_unverified_on_degradation &&
                          !report.predicted);
      if (!vr.verified && !degraded) ++eliminated;
      if (survives) {
        ++survivors;
        if (!report.predicted) ++detector_survivors;
      }
    }
    totals.time("verify.race_s", seconds_since(start));
    totals.count("verify.race_reports", reduced.size());
    totals.count("verify.race_attempts", attempts);
    totals.count("verify.race_steps", steps);
    totals.count("verify.race_eliminated", eliminated);
    if (survivors != want.remaining) {
      return mismatch("verified races", survivors, want.remaining);
    }
    const std::size_t eliminated_from_detector =
        want.after_annotation - std::min(want.after_annotation,
                                         detector_survivors);
    if (eliminated_from_detector != want.verifier_eliminated) {
      return mismatch("verifier eliminated", eliminated_from_detector,
                      want.verifier_eliminated);
    }
  }

  // ---- vuln: Algorithm 1 on the untraced verified races ----
  const std::vector<race::RaceReport>& final_reports =
      store.stage(core::Stage::kAfterRaceVerifier);
  struct Pending {
    std::size_t report_index;
    vuln::ExploitReport exploit;
  };
  std::vector<Pending> pending;
  start = Clock::now();
  {
    vuln::VulnerabilityAnalyzer::Options aopts;
    aopts.mode = options.analyzer_mode;
    aopts.resolved_indirect = &statics.resolved_calls;
    if (value_flow.has_value()) aopts.value_flow = &*value_flow;
    const vuln::VulnerabilityAnalyzer analyzer(module, aopts);
    for (std::size_t r = 0; r < final_reports.size(); ++r) {
      for (vuln::ExploitReport& exploit :
           analyzer.analyze(final_reports[r]).exploits) {
        pending.push_back({r, std::move(exploit)});
      }
    }
  }
  totals.time("vuln.analyze_s", seconds_since(start));
  totals.count("vuln.exploit_reports", pending.size());
  if (pending.size() != want.vulnerability_reports) {
    return mismatch("vulnerability reports", pending.size(),
                    want.vulnerability_reports);
  }

  // ---- verify: vulnerability verification ----
  if (options.enable_vuln_verifier) {
    verify::VulnVerifier::Options vopts;
    vopts.max_attempts = options.vuln_verifier_attempts;
    vopts.base_seed = options.retry.seed_for(target.seed * 104729 + 7, 0);
    vopts.thread_order = target.thread_order;
    const verify::VulnVerifier verifier(vopts);
    const race::MachineFactory& factory =
        target.exploit_factory ? target.exploit_factory : target.factory;
    std::uint64_t attempts = 0;
    std::size_t reached = 0;
    std::size_t realized = 0;
    start = Clock::now();
    for (const Pending& candidate : pending) {
      const verify::VulnVerifyResult vr = verifier.verify(
          candidate.exploit, factory, &final_reports[candidate.report_index]);
      attempts += vr.attempts;
      if (vr.site_reached) ++reached;
      if (vr.site_reached && vr.attack_realized) ++realized;
    }
    totals.time("verify.vuln_s", seconds_since(start));
    totals.count("verify.vuln_attempts", attempts);
    totals.count("verify.vuln_confirmed", realized);
    if (reached != untraced.attacks.size()) {
      return mismatch("attacks reaching their site", reached,
                      untraced.attacks.size());
    }
  }

  // ---- repair: planner + engine on the untraced confirmed races ----
  if (options.repair.enabled) {
    std::vector<race::RaceReport> confirmed;
    for (const race::RaceReport& report : final_reports) {
      if (report.verified) confirmed.push_back(report);
    }
    start = Clock::now();
    const repair::RepairReport report =
        repair::attempt_repair(target, options, statics, confirmed);
    totals.time("repair.run_s", seconds_since(start));
    totals.count("repair.candidates", report.candidates_tried);
    totals.count("repair.verified", report.status == "repaired" ? 1 : 0);
    if (report.candidates_tried != want.repair_candidates) {
      return mismatch("repair candidates", report.candidates_tried,
                      want.repair_candidates);
    }
  }

  // ---- core: the canonical text rendering ----
  start = Clock::now();
  const std::string text = core::render_cli_summary(untraced) +
                           core::render_cli_details(untraced, print_reports);
  totals.time("core.render_s", seconds_since(start));
  totals.count("core.render_bytes", text.size());
  return "";
}

}  // namespace perfbench
