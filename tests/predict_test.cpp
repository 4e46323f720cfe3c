// Tests for the sync-preserving race predictor (DESIGN.md §12): SP-closure
// unit cases on hand-built traces, and the pipeline contract on the shipped
// examples — final report sets identical across --predict modes (with
// predicted_only.mir as the deliberate exception: a planted race the
// observed schedules never exhibit, which only prediction + targeted replay
// can surface), byte-identical behavior across jobs, and audit mode
// observing zero wrongly-pruned races.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "race/predict/sp_predictor.hpp"
#include "support/metrics.hpp"

namespace owl::race::predict {
namespace {

std::shared_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  std::shared_ptr<ir::Module> m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

const ir::Instruction* find_instr(const ir::Function* f, ir::Opcode op,
                                  std::size_t n = 0) {
  for (const auto& bb : f->blocks()) {
    for (const auto& instr : bb->instructions()) {
      if (instr->opcode() == op) {
        if (n == 0) return instr.get();
        --n;
      }
    }
  }
  return nullptr;
}

// --------------------------------------------------------------------------
// SP-closure unit cases
// --------------------------------------------------------------------------

/// The unit traces borrow instructions from this module; the functions also
/// exercise the steering-read analysis (a load feeding a branch steers, a
/// load feeding only arithmetic does not).
std::shared_ptr<ir::Module> unit_module() {
  return parse_ok(R"(module synthetic
global @x
global @flag
global @bal
global @l
func @w() {
entry:
  store 41, @x
  store 1, @flag
  ret
}
func @r() {
entry:
  %f = load @flag
  %ok = icmp ne %f, 0
  br %ok, use, done
use:
  %v = load @x
  ret
done:
  ret
}
func @inc_a() {
entry:
  %v = load @bal
  %n = add %v, 1
  store %n, @bal
  ret
}
func @inc_b() {
entry:
  %v = load @bal
  %n = add %v, 1
  store %n, @bal
  ret
}
func @cs_a() {
entry:
  lock @l
  store 1, @x
  unlock @l
  ret
}
func @cs_b() {
entry:
  lock @l
  store 2, @x
  unlock @l
  ret
}
func @main() {
entry:
  ret
}
)");
}

constexpr interp::Address kX = 10;
constexpr interp::Address kFlag = 11;
constexpr interp::Address kBal = 12;
constexpr interp::Address kLock = 13;
constexpr interp::Address kSync = 20;
constexpr interp::Address kStat = 30;

TraceEvent ev(TraceEvent::Kind kind, interp::ThreadId tid,
              interp::Address addr, const ir::Instruction* instr = nullptr,
              interp::Word value = 0) {
  TraceEvent e;
  e.kind = kind;
  e.tid = tid;
  e.addr = addr;
  e.instr = instr;
  e.value = value;
  return e;
}

/// Main thread (tid 0) spawning workers 1 and 2 — every unit trace starts
/// with this so the closure's thread-creation rule is satisfiable.
std::vector<TraceEvent> spawn_two() {
  return {ev(TraceEvent::Kind::kThreadCreate, 0, 1),
          ev(TraceEvent::Kind::kThreadCreate, 0, 2)};
}

Trace trace_of(std::vector<TraceEvent> events) {
  Trace trace;
  trace.events = std::move(events);
  return trace;
}

RaceReport report_for(const ir::Instruction* a, const ir::Instruction* b,
                      ReportKind kind = ReportKind::kDataRace) {
  RaceReport report;
  report.kind = kind;
  report.first.instr = a;
  report.second.instr = b;
  return report;
}

ReportKey key_of(const RaceReport& report) { return report.key(); }

TEST(SpPredictorTest, GuardedHandoffPinsTheDataPair) {
  auto m = unit_module();
  const auto* w_x = find_instr(m->find_function("w"), ir::Opcode::kStore, 0);
  const auto* w_flag = find_instr(m->find_function("w"), ir::Opcode::kStore, 1);
  const auto* r_flag = find_instr(m->find_function("r"), ir::Opcode::kLoad, 0);
  const auto* r_x = find_instr(m->find_function("r"), ir::Opcode::kLoad, 1);
  ASSERT_TRUE(w_x && w_flag && r_flag && r_x);

  // Observed order: writer publishes @x then @flag; reader sees flag=1 and
  // dereferences @x. The flag read steers the branch guarding the @x read,
  // so any reordering that co-enables (w_x, r_x) must preserve r_flag's
  // writer — which is po-after w_x. Infeasible. The (w_flag, r_flag) pair
  // itself has no such constraint: a genuine race.
  std::vector<TraceEvent> events = spawn_two();
  events.push_back(ev(TraceEvent::Kind::kWrite, 1, kX, w_x, 41));
  events.push_back(ev(TraceEvent::Kind::kWrite, 1, kFlag, w_flag, 1));
  events.push_back(ev(TraceEvent::Kind::kRead, 2, kFlag, r_flag, 1));
  events.push_back(ev(TraceEvent::Kind::kRead, 2, kX, r_x, 41));
  const std::vector<Trace> traces{trace_of(std::move(events))};
  const std::vector<RaceReport> reduced{report_for(w_x, r_x),
                                        report_for(w_flag, r_flag)};

  const PredictOutcome out = SpPredictor().analyze(m.get(), traces, reduced);
  EXPECT_EQ(out.verdict_for(key_of(reduced[0])), Feasibility::kInfeasible);
  EXPECT_EQ(out.verdict_for(key_of(reduced[1])), Feasibility::kFeasible);
  EXPECT_EQ(out.candidates, 2u);
  EXPECT_EQ(out.infeasible_keys, 1u);
  EXPECT_GT(out.closure_iterations, 0u);

  // Without a module every read is steering — the strictest closure agrees
  // on both verdicts here (the flag pair's feasibility needs no rf slack).
  const PredictOutcome strict = SpPredictor().analyze(nullptr, traces, reduced);
  EXPECT_EQ(strict.verdict_for(key_of(reduced[0])), Feasibility::kInfeasible);
  EXPECT_EQ(strict.verdict_for(key_of(reduced[1])), Feasibility::kFeasible);
}

TEST(SpPredictorTest, DataOnlyReadDoesNotPinItsWriter) {
  auto m = unit_module();
  const auto* store_a = find_instr(m->find_function("inc_a"), ir::Opcode::kStore);
  const auto* load_b = find_instr(m->find_function("inc_b"), ir::Opcode::kLoad);
  const auto* store_b = find_instr(m->find_function("inc_b"), ir::Opcode::kStore);
  const auto* load_a = find_instr(m->find_function("inc_a"), ir::Opcode::kLoad);
  ASSERT_TRUE(store_a && load_b && store_b && load_a);

  // Sequential lost-update: t1 runs its read-modify-write, then t2. t2's
  // read observed t1's store, but that value only feeds arithmetic — it
  // steers nothing — so the closure may let it diverge and the two stores
  // can be co-enabled (the classic lost update). Treating every read as
  // steering (module=nullptr) pins t2's read to t1's store and wrongly
  // closes the door: this is exactly the precision the steering analysis
  // buys, erring toward kFeasible.
  std::vector<TraceEvent> events = spawn_two();
  events.push_back(ev(TraceEvent::Kind::kRead, 1, kBal, load_a, 0));
  events.push_back(ev(TraceEvent::Kind::kWrite, 1, kBal, store_a, 1));
  events.push_back(ev(TraceEvent::Kind::kRead, 2, kBal, load_b, 1));
  events.push_back(ev(TraceEvent::Kind::kWrite, 2, kBal, store_b, 2));
  const std::vector<Trace> traces{trace_of(std::move(events))};
  const std::vector<RaceReport> reduced{report_for(store_a, store_b)};

  const PredictOutcome relaxed = SpPredictor().analyze(m.get(), traces, reduced);
  EXPECT_EQ(relaxed.verdict_for(key_of(reduced[0])), Feasibility::kFeasible);

  const PredictOutcome strict = SpPredictor().analyze(nullptr, traces, reduced);
  EXPECT_EQ(strict.verdict_for(key_of(reduced[0])), Feasibility::kInfeasible);
}

TEST(SpPredictorTest, OverlappingCriticalSectionsCannotBeReordered) {
  auto m = unit_module();
  const auto* cs_a = find_instr(m->find_function("cs_a"), ir::Opcode::kStore);
  const auto* cs_b = find_instr(m->find_function("cs_b"), ir::Opcode::kStore);
  ASSERT_TRUE(cs_a && cs_b);

  // Both accesses sit inside critical sections on the same lock: co-enabling
  // them would need both sections open at once, which the lock-semantics
  // closure rule (earlier acquire's release must be included — but it is
  // po-after the access) contradicts.
  std::vector<TraceEvent> events = spawn_two();
  events.push_back(ev(TraceEvent::Kind::kAcquire, 1, kLock));
  events.push_back(ev(TraceEvent::Kind::kWrite, 1, kX, cs_a, 1));
  events.push_back(ev(TraceEvent::Kind::kRelease, 1, kLock));
  events.push_back(ev(TraceEvent::Kind::kAcquire, 2, kLock));
  events.push_back(ev(TraceEvent::Kind::kWrite, 2, kX, cs_b, 2));
  events.push_back(ev(TraceEvent::Kind::kRelease, 2, kLock));
  const std::vector<Trace> traces{trace_of(std::move(events))};
  const std::vector<RaceReport> reduced{report_for(cs_a, cs_b)};

  const PredictOutcome out = SpPredictor().analyze(m.get(), traces, reduced);
  EXPECT_EQ(out.verdict_for(key_of(reduced[0])), Feasibility::kInfeasible);
  EXPECT_EQ(out.infeasible_keys, 1u);
}

TEST(SpPredictorTest, HbEdgeKeepsItsReleaseSideSource) {
  auto m = unit_module();
  const auto* w_x = find_instr(m->find_function("w"), ir::Opcode::kStore, 0);
  const auto* r_x = find_instr(m->find_function("r"), ir::Opcode::kLoad, 1);
  ASSERT_TRUE(w_x && r_x);

  // hb_release after the write, hb_acquire before the read: the acquire
  // side must keep its observed source, which is po-after the write — the
  // pair is ordered in every sync-preserving reordering.
  std::vector<TraceEvent> events = spawn_two();
  events.push_back(ev(TraceEvent::Kind::kWrite, 1, kX, w_x, 41));
  events.push_back(ev(TraceEvent::Kind::kHbRelease, 1, kSync));
  events.push_back(ev(TraceEvent::Kind::kHbAcquire, 2, kSync));
  events.push_back(ev(TraceEvent::Kind::kRead, 2, kX, r_x, 41));
  const std::vector<Trace> traces{trace_of(std::move(events))};
  const std::vector<RaceReport> reduced{report_for(w_x, r_x)};

  const PredictOutcome out = SpPredictor().analyze(m.get(), traces, reduced);
  EXPECT_EQ(out.verdict_for(key_of(reduced[0])), Feasibility::kInfeasible);
}

TEST(SpPredictorTest, JoinRequiresTheJoinedThreadsFinish) {
  auto m = unit_module();
  const auto* w_x = find_instr(m->find_function("w"), ir::Opcode::kStore, 0);
  const auto* cs_b = find_instr(m->find_function("cs_b"), ir::Opcode::kStore);
  ASSERT_TRUE(w_x && cs_b);

  // t2 joins t1 before its access: the join forces t1's finish — po-after
  // t1's access — into the ideal, so the pair is ordered.
  std::vector<TraceEvent> events = spawn_two();
  events.push_back(ev(TraceEvent::Kind::kWrite, 1, kX, w_x, 41));
  events.push_back(ev(TraceEvent::Kind::kThreadFinish, 1, 0));
  events.push_back(ev(TraceEvent::Kind::kThreadJoin, 2, 1));
  events.push_back(ev(TraceEvent::Kind::kWrite, 2, kX, cs_b, 2));
  const std::vector<Trace> traces{trace_of(std::move(events))};
  const std::vector<RaceReport> reduced{report_for(w_x, cs_b)};

  const PredictOutcome out = SpPredictor().analyze(m.get(), traces, reduced);
  EXPECT_EQ(out.verdict_for(key_of(reduced[0])), Feasibility::kInfeasible);
}

TEST(SpPredictorTest, AtomicityReportsAreNeverJudged) {
  auto m = unit_module();
  const auto* w_flag = find_instr(m->find_function("w"), ir::Opcode::kStore, 1);
  const auto* r_flag = find_instr(m->find_function("r"), ir::Opcode::kLoad, 0);
  ASSERT_TRUE(w_flag && r_flag);

  std::vector<TraceEvent> events = spawn_two();
  events.push_back(ev(TraceEvent::Kind::kWrite, 1, kFlag, w_flag, 1));
  events.push_back(ev(TraceEvent::Kind::kRead, 2, kFlag, r_flag, 1));
  const std::vector<Trace> traces{trace_of(std::move(events))};
  const std::vector<RaceReport> reduced{
      report_for(w_flag, r_flag, ReportKind::kAtomicityViolation)};

  // Atomicity violations are verified by reproduction, not by co-enabling
  // one pair — the SP question does not apply and the verdict must stay
  // kUnknown (never pruned) without burning closure work.
  const PredictOutcome out = SpPredictor().analyze(m.get(), traces, reduced);
  EXPECT_EQ(out.verdict_for(key_of(reduced[0])), Feasibility::kUnknown);
  EXPECT_EQ(out.candidates, 0u);
}

TEST(SpPredictorTest, PairCapDegradesToUnknownNeverInfeasible) {
  auto m = unit_module();
  const auto* w_x = find_instr(m->find_function("w"), ir::Opcode::kStore, 0);
  const auto* r_x = find_instr(m->find_function("r"), ir::Opcode::kLoad, 1);
  const auto* w_flag = find_instr(m->find_function("w"), ir::Opcode::kStore, 1);
  const auto* r_flag = find_instr(m->find_function("r"), ir::Opcode::kLoad, 0);
  ASSERT_TRUE(w_x && r_x && w_flag && r_flag);

  // Same guarded-handoff trace whose data pair is provably infeasible —
  // but with a zero pair budget nothing was actually checked, and an
  // unchecked pair must degrade to kUnknown, never to a prune.
  std::vector<TraceEvent> events = spawn_two();
  events.push_back(ev(TraceEvent::Kind::kWrite, 1, kX, w_x, 41));
  events.push_back(ev(TraceEvent::Kind::kWrite, 1, kFlag, w_flag, 1));
  events.push_back(ev(TraceEvent::Kind::kRead, 2, kFlag, r_flag, 1));
  events.push_back(ev(TraceEvent::Kind::kRead, 2, kX, r_x, 41));
  const std::vector<Trace> traces{trace_of(std::move(events))};
  const std::vector<RaceReport> reduced{report_for(w_x, r_x)};

  SpPredictor::Options options;
  options.max_pairs_per_key = 0;
  const PredictOutcome out =
      SpPredictor(options).analyze(m.get(), traces, reduced);
  EXPECT_EQ(out.verdict_for(key_of(reduced[0])), Feasibility::kUnknown);
  EXPECT_EQ(out.infeasible_keys, 0u);
  EXPECT_EQ(out.candidates, 0u);
}

TEST(SpPredictorTest, PredictsRacesTheScheduleNeverExhibited) {
  auto m = unit_module();
  const auto* store_a = find_instr(m->find_function("inc_a"), ir::Opcode::kStore);
  const auto* store_b = find_instr(m->find_function("inc_b"), ir::Opcode::kStore);
  const auto* log_a = find_instr(m->find_function("cs_a"), ir::Opcode::kStore);
  const auto* log_b = find_instr(m->find_function("cs_b"), ir::Opcode::kStore);
  ASSERT_TRUE(store_a && store_b && log_a && log_b);

  // The predicted_only shape: two unguarded @stat writes straddling two
  // non-overlapping critical sections on unrelated data. The observed
  // order never co-enables them, but nothing prevents the reordering —
  // the predictor must synthesize the candidate the detector never saw.
  std::vector<TraceEvent> events = spawn_two();
  events.push_back(ev(TraceEvent::Kind::kWrite, 1, kStat, store_a, 1));
  events.push_back(ev(TraceEvent::Kind::kAcquire, 1, kLock));
  events.push_back(ev(TraceEvent::Kind::kWrite, 1, 40, log_a, 1));
  events.push_back(ev(TraceEvent::Kind::kRelease, 1, kLock));
  events.push_back(ev(TraceEvent::Kind::kAcquire, 2, kLock));
  events.push_back(ev(TraceEvent::Kind::kWrite, 2, 41, log_b, 1));
  events.push_back(ev(TraceEvent::Kind::kRelease, 2, kLock));
  events.push_back(ev(TraceEvent::Kind::kWrite, 2, kStat, store_b, 2));
  Trace trace = trace_of(std::move(events));
  trace.object_names[kStat] = "stat";
  const std::vector<Trace> traces{std::move(trace)};

  const PredictOutcome out = SpPredictor().analyze(m.get(), traces, {});
  ASSERT_EQ(out.predicted_new.size(), 1u);
  const RaceReport& predicted = out.predicted_new[0];
  EXPECT_TRUE(predicted.predicted);
  EXPECT_EQ(predicted.kind, ReportKind::kDataRace);
  EXPECT_EQ(predicted.object_name, "stat");
  EXPECT_EQ(key_of(predicted),
            (ReportKey{std::min(store_a->id(), store_b->id()),
                       std::max(store_a->id(), store_b->id())}));

  // A key the detector already reported is judged, never re-synthesized.
  const std::vector<RaceReport> reduced{report_for(store_a, store_b)};
  const PredictOutcome judged = SpPredictor().analyze(m.get(), traces, reduced);
  EXPECT_EQ(judged.verdict_for(key_of(reduced[0])), Feasibility::kFeasible);
  EXPECT_TRUE(judged.predicted_new.empty());
}

// --------------------------------------------------------------------------
// Shipped-example contract
// --------------------------------------------------------------------------

std::filesystem::path examples_dir() { return OWL_EXAMPLES_DIR; }

std::shared_ptr<ir::Module> load_example(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return parse_ok(text.str());
}

std::vector<std::filesystem::path> example_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(examples_dir())) {
    if (entry.path().extension() == ".mir") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  EXPECT_GE(files.size(), 6u);
  return files;
}

core::PipelineTarget target_for(const std::shared_ptr<ir::Module>& m) {
  core::PipelineTarget t;
  t.name = m->name();
  t.module = m.get();
  t.factory = [m] {
    auto machine =
        std::make_unique<interp::Machine>(*m, interp::MachineOptions{});
    machine->start(m->find_function("main"));
    return machine;
  };
  return t;
}

core::PipelineResult run_one(const std::shared_ptr<ir::Module>& m,
                             support::AuditMode mode, unsigned jobs = 1) {
  support::metrics().clear_for_test();
  core::PipelineOptions options;
  options.jobs = jobs;
  options.predict = mode;
  const core::Pipeline pipeline(options);
  std::vector<core::PipelineResult> results =
      pipeline.run_many({target_for(m)});
  EXPECT_EQ(results.size(), 1u);
  return std::move(results[0]);
}

/// Everything behavioral about a pipeline sweep — the byte-identity
/// currency of the jobs-invariance test (mirrors prescreen_test.cpp).
std::string behavior_fingerprint(const std::vector<core::PipelineResult>& rs) {
  std::ostringstream out;
  for (const core::PipelineResult& r : rs) {
    out << r.target_name << '\n'
        << r.counts.serialize() << '\n'
        << r.store.canonical_dump() << "exploits=" << r.exploits.size()
        << " attacks=" << r.attacks.size()
        << " confirmed=" << r.confirmed_attacks() << '\n';
  }
  out << support::metrics().serialize();
  return out.str();
}

TEST(PredictPipelineTest, AuditAgreesWithExhaustiveOnEveryExample) {
  for (const auto& path : example_files()) {
    auto m = load_example(path);
    const bool planted = path.filename() == "predicted_only.mir";

    const core::PipelineResult off = run_one(m, support::AuditMode::kOff);
    EXPECT_FALSE(off.counts.ran(support::PipelineStage::kPredict))
        << path.filename();
    // Off mode must leak nothing: no predict counters, no predict line in
    // the counts serialization.
    EXPECT_EQ(support::metrics().serialize().find("predict"),
              std::string::npos)
        << path.filename();
    EXPECT_EQ(off.counts.serialize().find("predict"), std::string::npos)
        << path.filename();

    const core::PipelineResult audit = run_one(m, support::AuditMode::kAudit);
    EXPECT_TRUE(audit.counts.ran(support::PipelineStage::kPredict))
        << path.filename();
    EXPECT_EQ(audit.store.canonical_dump(), off.store.canonical_dump())
        << "audit changed the report stream for " << path.filename();
    EXPECT_EQ(audit.counts.remaining, off.counts.remaining) << path.filename();
    EXPECT_EQ(audit.audit.predict, 0u)
        << "SP-closure wrongly called a verified race infeasible in "
        << path.filename();
    EXPECT_EQ(support::metrics().advisory("predict.audit_violations").value(),
              audit.audit.predict)
        << path.filename();

    const core::PipelineResult on = run_one(m, support::AuditMode::kOn);
    EXPECT_TRUE(on.counts.ran(support::PipelineStage::kPredict))
        << path.filename();
    if (planted) {
      // The planted example: exhaustive exploration never exhibits the
      // race; prediction finds it and targeted replay confirms it.
      EXPECT_EQ(off.counts.remaining, 0u);
      EXPECT_EQ(on.counts.remaining, 1u);
      EXPECT_EQ(on.counts.predict_new_confirmed, 1u);
    } else {
      EXPECT_EQ(on.store.canonical_dump(), off.store.canonical_dump())
          << "--predict on changed the final reports for " << path.filename();
      EXPECT_EQ(on.counts.remaining, off.counts.remaining) << path.filename();
    }
  }
  support::metrics().clear_for_test();
}

TEST(PredictPipelineTest, PipelineIsByteIdenticalAcrossJobsInEveryMode) {
  const std::vector<std::filesystem::path> files = example_files();
  std::vector<std::shared_ptr<ir::Module>> modules;
  for (const auto& path : files) modules.push_back(load_example(path));

  for (const support::AuditMode mode :
       {support::AuditMode::kOff, support::AuditMode::kOn,
        support::AuditMode::kAudit}) {
    std::string baseline;
    for (const unsigned jobs : {1u, 4u}) {
      support::metrics().clear_for_test();
      core::PipelineOptions options;
      options.jobs = jobs;
      options.predict = mode;
      const core::Pipeline pipeline(options);
      std::vector<core::PipelineTarget> targets;
      for (const auto& m : modules) targets.push_back(target_for(m));
      const std::string fingerprint =
          behavior_fingerprint(pipeline.run_many(targets));
      if (jobs == 1) {
        baseline = fingerprint;
      } else {
        EXPECT_EQ(fingerprint, baseline)
            << "predict mode " << support::audit_mode_name(mode)
            << " is jobs-dependent at jobs=" << jobs;
      }
    }
  }
  support::metrics().clear_for_test();
}

TEST(PredictPipelineTest, PredictionSlashesVerifierWorkOnGuardedExamples) {
  for (const char* name : {"guarded_publish.mir", "stale_handoff.mir"}) {
    auto m = load_example(examples_dir() / name);

    const core::PipelineResult off = run_one(m, support::AuditMode::kOff);
    const core::PipelineResult on = run_one(m, support::AuditMode::kOn);

    // Identical final reports...
    EXPECT_EQ(on.store.canonical_dump(), off.store.canonical_dump()) << name;
    // ...from at least 2x fewer verifier candidates: the guarded handoff
    // pairs are SP-infeasible and never reach schedule exploration.
    EXPECT_GE(on.counts.predict_pruned, 1u) << name;
    const std::size_t off_verified = off.counts.after_annotation;
    const std::size_t on_verified =
        on.counts.after_annotation - on.counts.predict_pruned;
    EXPECT_GE(off_verified, 2 * on_verified)
        << name << ": expected a >=2x verifier-candidate reduction, got "
        << off_verified << " -> " << on_verified;
    EXPECT_GT(on.counts.predict_schedules_avoided, 0u) << name;
    EXPECT_GT(support::metrics().counter("predict.schedules_avoided").value(),
              0u)
        << name;
  }
  support::metrics().clear_for_test();
}

TEST(PredictPipelineTest, PredictedOnlyRaceIsFoundAndReplayConfirmed) {
  auto m = load_example(examples_dir() / "predicted_only.mir");

  const core::PipelineResult off = run_one(m, support::AuditMode::kOff);
  EXPECT_EQ(off.counts.raw_reports, 0u);
  EXPECT_TRUE(off.store.stage(core::Stage::kAfterRaceVerifier).empty());

  const core::PipelineResult on = run_one(m, support::AuditMode::kOn);
  const auto& survivors = on.store.stage(core::Stage::kAfterRaceVerifier);
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_TRUE(survivors[0].predicted);
  EXPECT_TRUE(survivors[0].verified);
  EXPECT_EQ(survivors[0].object_name, "stat");
  EXPECT_EQ(on.counts.predict_new_confirmed, 1u);
  support::metrics().clear_for_test();
}

}  // namespace
}  // namespace owl::race::predict
