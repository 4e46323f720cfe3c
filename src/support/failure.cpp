#include "support/failure.hpp"

namespace owl::support {

namespace {

/// One row per stage: its enum value, its name, and its --inject-fault
/// token. The single source for both vocabularies.
struct StageVocabulary {
  PipelineStage stage;
  std::string_view name;
  std::string_view token;
};

constexpr StageVocabulary kStages[] = {
    {PipelineStage::kDetection, "detection", "detect"},
    {PipelineStage::kAnnotation, "annotation", "annotate"},
    {PipelineStage::kPredict, "predict", "predict"},
    {PipelineStage::kRaceVerification, "race-verification", "race-verify"},
    {PipelineStage::kVulnAnalysis, "vuln-analysis", "vuln-analyze"},
    {PipelineStage::kVulnVerification, "vuln-verification", "vuln-verify"},
    {PipelineStage::kCheckers, "checkers", "check"},
    {PipelineStage::kRepair, "repair", "repair"},
    {PipelineStage::kStaticAnalysis, "static-analysis", "static"},
    {PipelineStage::kValueFlow, "value-flow", "value-flow"},
    {PipelineStage::kDriver, "driver", ""},
    {PipelineStage::kServeAdmit, "serve-admit", "admit"},
    {PipelineStage::kServeEnqueue, "serve-enqueue", "enqueue"},
    {PipelineStage::kServeCacheRead, "serve-cache-read", "cache-read"},
    {PipelineStage::kServeCacheWrite, "serve-cache-write", "cache-write"},
    {PipelineStage::kServeRespond, "serve-respond", "respond"},
};

}  // namespace

std::string_view pipeline_stage_name(PipelineStage stage) noexcept {
  for (const StageVocabulary& row : kStages) {
    if (row.stage == stage) return row.name;
  }
  return "?";
}

bool parse_fault_stage(std::string_view token, PipelineStage& out) noexcept {
  if (token.empty()) return false;
  for (const StageVocabulary& row : kStages) {
    if (row.token == token) {
      out = row.stage;
      return true;
    }
  }
  return false;
}

std::string_view failure_cause_name(FailureCause cause) noexcept {
  switch (cause) {
    case FailureCause::kException: return "exception";
    case FailureCause::kLivelock: return "livelock";
    case FailureCause::kWallClockExhausted: return "wall-clock-exhausted";
    case FailureCause::kStepBudgetExhausted: return "step-budget-exhausted";
    case FailureCause::kSchedulerStall: return "scheduler-stall";
    case FailureCause::kTruncatedEvents: return "truncated-events";
  }
  return "?";
}

std::string FailureRecord::to_string() const {
  std::string out(pipeline_stage_name(stage));
  out += "/";
  out += failure_cause_name(cause);
  if (retries > 0) {
    out += " after " + std::to_string(retries) + " retr" +
           (retries == 1 ? "y" : "ies");
  }
  if (!detail.empty()) {
    out += " (" + detail + ")";
  }
  return out;
}

std::string failure_summary(const std::vector<FailureRecord>& failures) {
  if (failures.empty()) return "ok";
  std::string out = "degraded(";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out += ",";
    out += pipeline_stage_name(failures[i].stage);
    out += ":";
    out += failure_cause_name(failures[i].cause);
  }
  out += ")";
  return out;
}

}  // namespace owl::support
