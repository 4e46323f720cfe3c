#include "core/render.hpp"

#include "checkers/sarif.hpp"
#include "support/strings.hpp"
#include "vuln/hint.hpp"

namespace owl::core {

std::string render_cli_summary(const PipelineResult& result) {
  std::string out;
  out += str_format("owl_cli: %s\n", result.target_name.c_str());
  out += str_format("  raw race reports:      %zu\n",
                    result.counts.raw_reports);
  out += str_format("  adhoc syncs annotated: %zu\n",
                    result.counts.adhoc_syncs);
  out += str_format("  verifier eliminated:   %zu\n",
                    result.counts.verifier_eliminated);
  out += str_format("  verified races:        %zu\n", result.counts.remaining);
  out += str_format("  vulnerability reports: %zu\n",
                    result.counts.vulnerability_reports);
  out += str_format("  attacks (site reached/realized): %zu/%zu\n",
                    result.attacks.size(), result.confirmed_attacks());
  if (result.counts.ran(support::PipelineStage::kCheckers)) {
    out += str_format("  checker findings:      %zu\n",
                      result.checker_findings.size());
  }
  if (result.counts.ran(support::PipelineStage::kPredict)) {
    out += str_format(
        "  predict: candidates=%zu pruned=%zu new=%zu avoided=%zu\n",
        result.counts.predict_candidates, result.counts.predict_pruned,
        result.counts.predict_new_confirmed,
        result.counts.predict_schedules_avoided);
  }
  if (result.counts.ran(support::PipelineStage::kRepair)) {
    out += str_format("  repair: status=%s strategy=%s candidates=%u\n",
                      result.repair.status.c_str(),
                      result.repair.strategy.empty()
                          ? "-"
                          : result.repair.strategy.c_str(),
                      result.repair.candidates_tried);
  }
  out += str_format("  resilience:            %s\n",
                    result.counts.resilience_summary().c_str());
  if (result.degraded()) {
    for (const support::FailureRecord& record : result.counts.failures) {
      out += str_format("    %s\n", record.to_string().c_str());
    }
  }
  return out;
}

std::string render_cli_details(const PipelineResult& result,
                               bool print_reports) {
  std::string out;
  if (print_reports) {
    out += str_format("\n--- verified races (%s) ---\n",
                      result.target_name.c_str());
    for (const race::RaceReport& report :
         result.store.stage(Stage::kAfterRaceVerifier)) {
      out += report.to_string();
      out += "\n";
    }
  }
  if (!result.exploits.empty()) {
    out += str_format("\n--- vulnerable input hints (%s) ---\n",
                      result.target_name.c_str());
    for (const vuln::ExploitReport& exploit : result.exploits) {
      out += vuln::render_hint(exploit);
    }
  }
  if (!result.attacks.empty()) {
    out += str_format("\n--- attacks (%s) ---\n", result.target_name.c_str());
    for (const ConcurrencyAttack& attack : result.attacks) {
      out += attack.to_string();
    }
  }
  if (result.counts.ran(support::PipelineStage::kCheckers)) {
    out += str_format("\n--- checker findings (%s) ---\n",
                      result.target_name.c_str());
    if (result.checker_findings.empty()) {
      out += "none\n";
    }
    for (const checkers::BugReport& report : result.checker_findings) {
      out += report.to_string();
    }
  }
  if (result.counts.ran(support::PipelineStage::kRepair)) {
    // Identical from the CLI and from owl_served: everything here is a
    // function of the analysis alone — the --repair DIR path never
    // appears, only the deterministic basename of the fixed module.
    const repair::RepairReport& repair = result.repair;
    out += str_format("\n--- repair (%s) ---\n", result.target_name.c_str());
    out += str_format("status: %s\n", repair.status.c_str());
    if (repair.status == "repaired") {
      out += str_format("strategy: %s\n", repair.strategy.c_str());
      if (!repair.lock.empty()) {
        out += str_format("lock: @%s\n", repair.lock.c_str());
      }
      out += str_format("fixed module: %s\n", repair.fixed_module.c_str());
      out += str_format(
          "gates: race-free=%s no-new-findings=%s output-identical=%s\n",
          repair.gate_race_free ? "pass" : "fail",
          repair.gate_no_new_findings ? "pass" : "fail",
          repair.gate_output_equal ? "pass" : "fail");
    }
    out += str_format("candidates tried: %u\n", repair.candidates_tried);
    if (!repair.races.empty()) {
      out += "confirmed races:\n";
      for (const repair::RepairedRace& race : repair.races) {
        out += str_format("  %s: %s <-> %s\n", race.object.c_str(),
                          race.first_loc.c_str(), race.second_loc.c_str());
      }
    }
  }
  return out;
}

std::string render_cli_sarif(const std::vector<PipelineResult>& results) {
  std::vector<checkers::SarifTarget> targets;
  targets.reserve(results.size());
  for (const PipelineResult& result : results) {
    targets.push_back(
        checkers::SarifTarget{result.target_name, &result.checker_findings});
  }
  return checkers::render_sarif(targets);
}

}  // namespace owl::core
