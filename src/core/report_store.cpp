#include "core/report_store.hpp"

#include "support/strings.hpp"

namespace owl::core {

std::string StageCounts::serialize() const {
  std::string out = str_format(
      "raw=%zu adhoc=%zu after_annotation=%zu eliminated=%zu remaining=%zu "
      "vuln_reports=%zu retries=%u\n",
      raw_reports, adhoc_syncs, after_annotation, verifier_eliminated,
      remaining, vulnerability_reports, retries_used);
  if (ran(support::PipelineStage::kCheckers)) {
    out += str_format("checkers: findings=%zu\n", checker_findings);
  }
  if (ran(support::PipelineStage::kPredict)) {
    out += str_format(
        "predict: candidates=%zu pruned=%zu new_confirmed=%zu "
        "schedules_avoided=%zu\n",
        predict_candidates, predict_pruned, predict_new_confirmed,
        predict_schedules_avoided);
  }
  if (ran(support::PipelineStage::kRepair)) {
    out += str_format("repair: status=%s candidates=%zu\n",
                      repair_status.c_str(), repair_candidates);
  }
  for (const support::FailureRecord& record : failures) {
    out += str_format(
        "failure: %s/%s steps=%llu retries=%u (%s)\n",
        std::string(support::pipeline_stage_name(record.stage)).c_str(),
        std::string(support::failure_cause_name(record.cause)).c_str(),
        static_cast<unsigned long long>(record.steps_spent), record.retries,
        record.detail.c_str());
  }
  return out;
}

void ReportStore::set_stage(Stage stage, std::vector<race::RaceReport> reports) {
  stages_[index_of(stage)] = std::move(reports);
  present_[index_of(stage)] = true;
}

const std::vector<race::RaceReport>& ReportStore::stage(Stage stage) const {
  static const std::vector<race::RaceReport> kEmpty;
  if (!present_[index_of(stage)]) return kEmpty;
  return stages_[index_of(stage)];
}

bool ReportStore::has_stage(Stage stage) const noexcept {
  return present_[index_of(stage)];
}

std::string ReportStore::render_stage(Stage stage) const {
  if (!has_stage(stage)) return "<stage not recorded>\n";
  std::string out;
  for (const race::RaceReport& report : this->stage(stage)) {
    out += report.to_string();
    out += "\n";
  }
  return out;
}

std::string ReportStore::canonical_dump() const {
  static constexpr const char* kStageNames[3] = {
      "raw-detection", "after-annotation", "after-race-verifier"};
  std::string out;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto stage = static_cast<Stage>(i);
    out += std::string("[stage ") + kStageNames[i] + "]\n";
    out += render_stage(stage);
  }
  return out;
}

}  // namespace owl::core
