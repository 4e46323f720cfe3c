#include "support/fault_injector.hpp"

#include "support/strings.hpp"

namespace owl::support {

std::string_view fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kSchedulerStall: return "scheduler-stall";
    case FaultKind::kBreakpointLivelock: return "breakpoint-livelock";
    case FaultKind::kStageException: return "stage-exception";
    case FaultKind::kTruncatedEvents: return "truncated-events";
    case FaultKind::kCorruptedData: return "corrupted-data";
  }
  return "?";
}

bool is_service_phase(PipelineStage stage) noexcept {
  return pipeline_stage_name(stage).starts_with("serve-");
}

bool parse_fault_plan(std::string_view text, FaultPlan& plan) {
  const std::vector<std::string> parts = split(text, ':');
  if (parts.size() < 2 || parts.size() > 3) return false;
  if (!parse_fault_stage(parts[0], plan.stage)) return false;
  if (parts[1] == "stall") {
    plan.kind = FaultKind::kSchedulerStall;
  } else if (parts[1] == "livelock") {
    plan.kind = FaultKind::kBreakpointLivelock;
  } else if (parts[1] == "throw") {
    plan.kind = FaultKind::kStageException;
  } else if (parts[1] == "truncate") {
    plan.kind = FaultKind::kTruncatedEvents;
  } else if (parts[1] == "corrupt") {
    plan.kind = FaultKind::kCorruptedData;
  } else {
    return false;
  }
  if (parts.size() == 3) {
    std::int64_t after = 0;
    if (!parse_int64(parts[2], after) || after < 0) return false;
    plan.after = static_cast<std::uint64_t>(after);
  }
  return true;
}

FaultInjector FaultInjector::fork() const {
  FaultInjector out(seed_);
  for (const PlanState& state : plans_) out.add_plan(state.plan);
  return out;
}

void FaultInjector::absorb(const FaultInjector& fork) {
  events_.insert(events_.end(), fork.events_.begin(), fork.events_.end());
  fired_total_ += fork.fired_total_;
}

void FaultInjector::begin_target(std::string_view name) {
  target_.assign(name);
  for (PlanState& state : plans_) {
    state.probes = 0;
    state.logged_in_context = false;
  }
}

void FaultInjector::begin_stage(PipelineStage stage) {
  stage_ = stage;
  stage_mark_ = events_.size();
  for (PlanState& state : plans_) {
    state.probes = 0;
    state.logged_in_context = false;
  }
}

bool FaultInjector::fired_in_stage(FaultKind kind) const noexcept {
  for (std::size_t i = stage_mark_; i < events_.size(); ++i) {
    if (events_[i].kind == kind) return true;
  }
  return false;
}

std::uint64_t FaultInjector::fired_count(FaultKind kind) const noexcept {
  std::uint64_t n = 0;
  for (const PlanState& state : plans_) {
    if (state.plan.kind == kind) n += state.fired;
  }
  return n;
}

bool FaultInjector::probe(FaultKind kind) {
  bool fire = false;
  for (PlanState& state : plans_) {
    const FaultPlan& plan = state.plan;
    if (plan.kind != kind || plan.stage != stage_) continue;
    if (!plan.target.empty() && plan.target != target_) continue;
    const std::uint64_t probe_index = state.probes++;
    if (probe_index < plan.after) continue;
    if (plan.count != 0 && state.fired >= plan.count) continue;
    if (plan.probability_percent < 100 &&
        !rng_.chance(plan.probability_percent, 100)) {
      continue;
    }
    if (!state.logged_in_context) {
      // First firing in this context: log it (bounded — high-frequency
      // probes like stalls fire millions of times but log once).
      events_.push_back({kind, stage_, target_});
      state.logged_in_context = true;
    }
    ++state.fired;
    ++fired_total_;
    fire = true;
  }
  return fire;
}

bool FaultInjector::probe_at(PipelineStage phase, FaultKind kind) {
  // Swap the phase in for the duration of one probe. Counters are shared
  // with the ambient context on purpose (see the header): a service
  // injector is dedicated to service plans, so nothing else resets them.
  const PipelineStage saved = stage_;
  stage_ = phase;
  const bool fired = probe(kind);
  stage_ = saved;
  return fired;
}

void FaultInjector::maybe_throw_at(PipelineStage phase) {
  if (probe_at(phase, FaultKind::kStageException)) {
    throw InjectedFault(str_format(
        "injected exception in %s",
        std::string(pipeline_stage_name(phase)).c_str()));
  }
}

void FaultInjector::maybe_throw() {
  if (probe(FaultKind::kStageException)) {
    throw InjectedFault(str_format(
        "injected exception in %s on %s",
        std::string(pipeline_stage_name(stage_)).c_str(),
        target_.empty() ? "<unnamed>" : target_.c_str()));
  }
}

}  // namespace owl::support
