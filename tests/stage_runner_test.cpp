// Integration tests for the pipeline's stage runner: every stage, the
// ones added around the paper's five included, degrades instead of
// escaping Pipeline::run, and the trace spans and --timings rows the
// runner emits name the same stages.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/pipeline.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "vuln/hint.hpp"

namespace owl::core {
namespace {

using support::PipelineStage;

struct Example {
  std::shared_ptr<ir::Module> module;
  PipelineTarget target;
};

/// An example module as owl_cli would wire it, repair hook included.
Example load_example(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  auto parsed = ir::parse_module(text.str());
  EXPECT_TRUE(parsed.is_ok()) << path;
  std::shared_ptr<ir::Module> m = std::move(parsed).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok()) << path;
  const auto factory_for = [](std::shared_ptr<const ir::Module> module) {
    return race::MachineFactory([module] {
      auto machine = std::make_unique<interp::Machine>(
          *module, interp::MachineOptions{});
      machine->start(module->find_function("main"));
      return machine;
    });
  };
  Example example{m, {}};
  example.target.name = path.filename().string();
  example.target.module = m.get();
  example.target.factory = factory_for(m);
  example.target.factory_for_module = factory_for;
  return example;
}

std::vector<Example> all_examples() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(OWL_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".mir") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Example> examples;
  for (const auto& path : paths) examples.push_back(load_example(path));
  return examples;
}

std::vector<PipelineTarget> targets_of(const std::vector<Example>& examples) {
  std::vector<PipelineTarget> targets;
  for (const Example& example : examples) targets.push_back(example.target);
  return targets;
}

std::vector<PipelineResult> run_with_fault(PipelineOptions options,
                                           const char* spec,
                                           const std::vector<Example>& examples,
                                           unsigned jobs) {
  support::FaultInjector injector(1);
  support::FaultPlan plan;
  EXPECT_TRUE(support::parse_fault_plan(spec, plan)) << spec;
  injector.add_plan(plan);
  options.fault_injector = &injector;
  options.jobs = jobs;
  return Pipeline(options).run_many(targets_of(examples));
}

std::string serialize_all(const std::vector<PipelineResult>& results) {
  std::string out;
  for (const PipelineResult& result : results) out += serialize_result(result);
  return out;
}

// A failed static analysis must not escape to the driver: the run goes on
// without the module facts (no prescreen, Algorithm 1 without resolved
// callptr edges), and stays deterministic across worker counts.
TEST(StageRunnerTest, StaticAnalysisThrowDegradesTheRun) {
  const std::vector<Example> examples = all_examples();
  ASSERT_GE(examples.size(), 2u);
  PipelineOptions options;
  options.prescreen = support::AuditMode::kOn;
  const auto sequential =
      run_with_fault(options, "static:throw", examples, /*jobs=*/1);
  for (const PipelineResult& result : sequential) {
    EXPECT_EQ(result.counts.resilience_summary(),
              "degraded(static-analysis:exception)")
        << result.target_name;
    for (const PipelineStage stage :
         {PipelineStage::kDetection, PipelineStage::kAnnotation,
          PipelineStage::kRaceVerification, PipelineStage::kVulnAnalysis,
          PipelineStage::kVulnVerification}) {
      EXPECT_TRUE(result.counts.ran(stage))
          << result.target_name << " "
          << support::pipeline_stage_name(stage);
    }
  }
  EXPECT_EQ(serialize_all(sequential),
            serialize_all(
                run_with_fault(options, "static:throw", examples, 4)));
  support::metrics().clear_for_test();
}

// A failed value-flow build leaves Algorithm 1 register-only: the
// exploits are those of a --vuln-flow off run.
TEST(StageRunnerTest, ValueFlowThrowFallsBackToRegisterOnlyWalk) {
  const std::vector<Example> examples = {
      load_example(std::filesystem::path(OWL_EXAMPLES_DIR) /
                   "heap_relay.mir")};
  PipelineOptions on;
  on.vuln_flow = support::AuditMode::kOn;
  const auto faulted = run_with_fault(on, "value-flow:throw", examples, 1);
  const auto off = Pipeline().run_many(targets_of(examples));
  const auto healthy = Pipeline(on).run_many(targets_of(examples));
  ASSERT_EQ(faulted.size(), 1u);
  EXPECT_EQ(faulted[0].counts.resilience_summary(),
            "degraded(value-flow:exception)");
  const auto hints = [](const PipelineResult& result) {
    std::string out;
    for (const vuln::ExploitReport& exploit : result.exploits) {
      out += vuln::render_hint(exploit);
    }
    return out;
  };
  EXPECT_EQ(hints(faulted[0]), hints(off[0]));
  // The example is one where value flow matters, so the fallback shows.
  EXPECT_NE(hints(healthy[0]), hints(off[0]));
  support::metrics().clear_for_test();
}

// The runner opens each stage's span and records its --timings row from
// the same table entry, so on an all-features run the two name the same
// stages. Names only: nested repair pipelines add spans, not stages.
TEST(StageRunnerTest, StageSpansMatchStageTimings) {
  PipelineOptions options;
  options.predict = support::AuditMode::kOn;
  options.vuln_flow = support::AuditMode::kOn;
  std::string error;
  ASSERT_TRUE(checkers::CheckerOptions::parse("all", options.checkers, error));
  options.repair.enabled = true;
  StageTimings timings;
  options.stage_timings = &timings;
  support::TraceCollector& collector = support::TraceCollector::instance();
  collector.clear();
  collector.set_enabled(true);
  const std::vector<Example> examples = all_examples();
  Pipeline(options).run_many(targets_of(examples));
  collector.set_enabled(false);

  std::set<std::string> stage_names;
  for (int i = 0; i <= static_cast<int>(PipelineStage::kServeRespond); ++i) {
    stage_names.emplace(
        support::pipeline_stage_name(static_cast<PipelineStage>(i)));
  }
  std::set<std::string> spans;
  for (const support::TraceEvent& event : collector.snapshot()) {
    if (stage_names.count(event.name) != 0) spans.insert(event.name);
  }
  collector.clear();
  std::set<std::string> timed;
  for (const std::string& name : stage_names) {
    if (timings.stage_snapshot(name).count > 0) timed.insert(name);
  }
  EXPECT_EQ(spans, timed);
  for (const char* stage :
       {"static-analysis", "checkers", "value-flow", "detection",
        "annotation", "predict", "race-verification", "vuln-analysis",
        "vuln-verification", "repair"}) {
    EXPECT_EQ(timed.count(stage), 1u) << stage;
  }
  support::metrics().clear_for_test();
}

// A stall or truncation injected into a verifier attempt burns that
// attempt; a "not verified" from it is no evidence. The race passes
// through unverified instead of counting as eliminated, and the stage
// reports what degraded it.
TEST(StageRunnerTest, InjectedVerifierFaultsDoNotHideRaces) {
  const std::vector<Example> examples = {load_example(
      std::filesystem::path(OWL_EXAMPLES_DIR) / "toctou.mir")};
  const auto healthy = Pipeline().run_many(targets_of(examples));
  ASSERT_EQ(healthy[0].counts.remaining, 1u);
  ASSERT_EQ(healthy[0].counts.verifier_eliminated, 0u);
  const struct {
    const char* spec;
    const char* summary;
  } cases[] = {
      {"race-verify:stall", "degraded(race-verification:scheduler-stall)"},
      {"race-verify:truncate",
       "degraded(race-verification:truncated-events)"},
      {"vuln-verify:stall", "degraded(vuln-verification:scheduler-stall)"},
      {"vuln-verify:truncate",
       "degraded(vuln-verification:truncated-events)"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.spec);
    const auto faulted = run_with_fault(PipelineOptions{}, c.spec, examples, 1);
    ASSERT_EQ(faulted.size(), 1u);
    EXPECT_EQ(faulted[0].counts.remaining, 1u);
    EXPECT_EQ(faulted[0].counts.verifier_eliminated, 0u);
    EXPECT_EQ(faulted[0].counts.resilience_summary(), c.summary);
  }
  support::metrics().clear_for_test();
}

// Degradation warnings are logged once the results are final, in input
// order, so a parallel run's log does not depend on worker timing.
TEST(StageRunnerTest, DegradationWarningsFollowInputOrder) {
  const std::vector<Example> examples = all_examples();
  std::vector<std::string> captured;
  LogSink previous = set_log_sink([&](LogLevel level, const std::string& line) {
    if (level == LogLevel::kWarn) captured.push_back(line);
  });
  const auto results =
      run_with_fault(PipelineOptions{}, "race-verify:throw", examples, 4);
  set_log_sink(std::move(previous));
  std::vector<std::string> expected;
  for (const PipelineResult& result : results) {
    for (const support::FailureRecord& record : result.counts.failures) {
      expected.push_back(record.to_string());
    }
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(captured.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NE(captured[i].find(expected[i]), std::string::npos)
        << captured[i];
  }
  support::metrics().clear_for_test();
}

}  // namespace
}  // namespace owl::core
