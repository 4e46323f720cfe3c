// Unit tests for the Andersen points-to solver, indirect-call resolution,
// and the Algorithm-1 callptr descent the resolved edges unlock.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/points_to.hpp"
#include "analysis/static_info.hpp"
#include "ir/parser.hpp"
#include "ir/verifier.hpp"
#include "vuln/analyzer.hpp"

namespace owl::analysis {
namespace {

std::unique_ptr<ir::Module> parse_ok(std::string_view text) {
  auto result = ir::parse_module(text);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  auto m = std::move(result).value();
  EXPECT_TRUE(ir::verify_module(*m).is_ok());
  return m;
}

/// The n-th instruction with the given opcode in a function (0-based).
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

PointsTo::ObjectId id_of(const PointsTo& pt, const ir::Value* site) {
  PointsTo::ObjectId id = 0;
  EXPECT_TRUE(pt.id_of_site(site, id));
  return id;
}

TEST(PointsToTest, StoreLoadThroughGlobalSlot) {
  auto m = parse_ok(R"(module m
global @slot
global @obj [2] = 7
func @main() {
entry:
  store @obj, @slot
  %p = load @slot
  %v = load %p
  ret
}
)");
  const PointsTo pt(*m);
  const ir::Function* main_fn = m->find_function("main");
  const PointsTo::ObjectId obj = id_of(pt, m->find_global("obj"));
  const PointsTo::ObjectId slot = id_of(pt, m->find_global("slot"));

  // %p = load @slot reads @slot's content: the address of @obj, nothing else.
  const ir::Instruction* p = find_instr(main_fn, ir::Opcode::kLoad, 0);
  const std::vector<PointsTo::ObjectId>& pts = pt.points_to(p);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts.front(), obj);
  EXPECT_FALSE(pt.is_unknown(p));
  EXPECT_TRUE(pt.offset_range(p).bounded());
  EXPECT_EQ(pt.offset_range(p).lo, 0);
  EXPECT_EQ(pt.offset_range(p).hi, 0);

  // Object-level view: @slot's cells point to @obj; @obj's cells to nothing.
  EXPECT_EQ(pt.object_points_to(slot),
            std::vector<PointsTo::ObjectId>{obj});
  EXPECT_TRUE(pt.object_points_to(obj).empty());
  std::uint64_t cells = 0;
  EXPECT_TRUE(pt.object_size(obj, cells));
  EXPECT_EQ(cells, 2u);
  EXPECT_FALSE(pt.has_unknown_store());
}

TEST(PointsToTest, GepTracksConstantOffsetAndWidensVariableOffset) {
  auto m = parse_ok(R"(module m
func @main() {
entry:
  %b = alloca 8
  %g = gep %b, 3
  %v = load %g
  %i = input 0
  %w = gep %b, %i
  %u = load %w
  ret
}
)");
  const PointsTo pt(*m);
  const ir::Function* f = m->find_function("main");
  const ir::Instruction* alloca_site = find_instr(f, ir::Opcode::kAlloca);
  const PointsTo::ObjectId buf = id_of(pt, alloca_site);

  const ir::Instruction* g = find_instr(f, ir::Opcode::kGep, 0);
  EXPECT_EQ(pt.points_to(g), std::vector<PointsTo::ObjectId>{buf});
  EXPECT_TRUE(pt.offset_range(g).bounded());
  EXPECT_EQ(pt.offset_range(g).lo, 3);
  EXPECT_EQ(pt.offset_range(g).hi, 3);

  // A runtime-input offset cannot be bounded statically.
  const ir::Instruction* w = find_instr(f, ir::Opcode::kGep, 1);
  EXPECT_EQ(pt.points_to(w), std::vector<PointsTo::ObjectId>{buf});
  EXPECT_FALSE(pt.offset_range(w).bounded());
}

TEST(PointsToTest, PhiCycleConvergesAndCollapses) {
  auto m = parse_ok(R"(module m
global @cond
func @main() {
entry:
  %a = alloca 1
  %b = alloca 1
  jmp loop
loop:
  %p = phi [%a, entry], [%q, loop]
  %q = phi [%b, entry], [%p, loop]
  %v = load %p
  %c = load @cond
  %t = icmp ne %c, 0
  br %t, loop, done
done:
  ret
}
)");
  const PointsTo pt(*m);
  const ir::Function* f = m->find_function("main");
  const PointsTo::ObjectId a = id_of(pt, find_instr(f, ir::Opcode::kAlloca, 0));
  const PointsTo::ObjectId b = id_of(pt, find_instr(f, ir::Opcode::kAlloca, 1));

  // Both phis sit on a copy cycle; their solutions agree and contain both
  // allocation sites.
  const ir::Instruction* p = find_instr(f, ir::Opcode::kPhi, 0);
  const ir::Instruction* q = find_instr(f, ir::Opcode::kPhi, 1);
  const std::vector<PointsTo::ObjectId> both{std::min(a, b), std::max(a, b)};
  EXPECT_EQ(pt.points_to(p), both);
  EXPECT_EQ(pt.points_to(q), both);
  EXPECT_GE(pt.stats().scc_merges, 1u);
}

TEST(PointsToTest, DeterministicAcrossRebuilds) {
  const char* kText = R"(module m
global @slot
global @obj [4]
func @f() -> i64 {
entry:
  ret 1
}
func @main() {
entry:
  %a = alloca 2
  store @obj, @slot
  store @f, %a
  %p = load @slot
  %v = load %p
  %g = gep %a, 1
  %q = load %g
  ret
}
)";
  auto m1 = parse_ok(kText);
  auto m2 = parse_ok(kText);
  const PointsTo pt1(*m1);
  const PointsTo pt2(*m2);

  EXPECT_EQ(pt1.stats().nodes, pt2.stats().nodes);
  EXPECT_EQ(pt1.stats().objects, pt2.stats().objects);
  EXPECT_EQ(pt1.stats().copy_edges, pt2.stats().copy_edges);
  EXPECT_EQ(pt1.stats().propagations, pt2.stats().propagations);

  // Corresponding instructions get identical (sorted) object-id sets.
  const ir::Function* f1 = m1->find_function("main");
  const ir::Function* f2 = m2->find_function("main");
  for (ir::Opcode op : {ir::Opcode::kLoad, ir::Opcode::kGep}) {
    for (std::size_t n = 0;; ++n) {
      const ir::Instruction* i1 = find_instr(f1, op, n);
      const ir::Instruction* i2 = find_instr(f2, op, n);
      ASSERT_EQ(i1 == nullptr, i2 == nullptr);
      if (i1 == nullptr) break;
      EXPECT_EQ(pt1.points_to(i1), pt2.points_to(i2));
      EXPECT_EQ(pt1.is_unknown(i1), pt2.is_unknown(i2));
    }
  }
}

TEST(PointsToTest, ResolvesIndirectCallToAllStoredFunctions) {
  auto m = parse_ok(R"(module m
global @slot
func @f() -> i64 {
entry:
  ret 1
}
func @g() -> i64 {
entry:
  ret 2
}
func @main() {
entry:
  %c = input 0
  %t = icmp ne %c, 0
  br %t, a, b
a:
  store @f, @slot
  jmp go
b:
  store @g, @slot
  jmp go
go:
  %fp = load @slot
  %r = callptr %fp(0)
  ret
}
)");
  const ModuleStatic ms(*m);
  const ir::Function* main_fn = m->find_function("main");
  const ir::Instruction* callptr = find_instr(main_fn, ir::Opcode::kCallPtr);

  const std::vector<ir::Function*> targets =
      ms.points_to.resolve_indirect(callptr);
  ASSERT_EQ(targets.size(), 2u);
  // Module declaration order, not solve order.
  EXPECT_EQ(targets[0]->name(), "f");
  EXPECT_EQ(targets[1]->name(), "g");
  EXPECT_FALSE(ms.points_to.indirect_unresolved(callptr));

  EXPECT_EQ(ms.indirect_call_sites, 1u);
  EXPECT_EQ(ms.indirect_resolved_edges, 2u);
  EXPECT_EQ(ms.unresolved_indirect_sites, 0u);
  const auto it = ms.resolved_calls.find(callptr);
  ASSERT_NE(it, ms.resolved_calls.end());
  EXPECT_EQ(it->second.size(), 2u);
}

TEST(PointsToTest, UnknownTargetMarksCallsiteUnresolved) {
  auto m = parse_ok(R"(module m
func @main() {
entry:
  %x = input 0
  %r = callptr %x(0)
  ret
}
)");
  const ModuleStatic ms(*m);
  const ir::Instruction* callptr =
      find_instr(m->find_function("main"), ir::Opcode::kCallPtr);

  EXPECT_TRUE(ms.points_to.is_unknown(callptr->operand(0)));
  EXPECT_TRUE(ms.points_to.indirect_unresolved(callptr));
  EXPECT_TRUE(ms.points_to.resolve_indirect(callptr).empty());
  EXPECT_EQ(ms.indirect_call_sites, 1u);
  EXPECT_EQ(ms.unresolved_indirect_sites, 1u);
}

TEST(PointsToTest, ThreadCreateFlowsArgumentIntoEntryFunction) {
  auto m = parse_ok(R"(module m
global @box
func @child(ptr %p) {
entry:
  store 1, %p
  ret
}
func @main() {
entry:
  %t = thread_create @child, @box
  thread_join %t
  ret
}
)");
  const PointsTo pt(*m);
  const ir::Function* child = m->find_function("child");
  const PointsTo::ObjectId box = id_of(pt, m->find_global("box"));
  EXPECT_EQ(pt.points_to(child->argument(0)),
            std::vector<PointsTo::ObjectId>{box});
}

// The pre-analysis blind spot (satellite fix): a race-corrupted value that
// only becomes dangerous inside an indirectly-called handler. Algorithm 1
// must find the handler-internal site exactly when the callptr edge is
// resolved.
TEST(PointsToTest, AlgorithmOneDescendsThroughResolvedCallPtr) {
  auto m = parse_ok(R"(module m
global @handler_slot
global @req
func @handler(ptr %p) -> i64 {
entry:
  %v = load %p
  ret %v
}
func @worker() {
entry:
  %r = load @req
  %f = load @handler_slot
  %v = callptr %f(%r)
  ret
}
func @attacker() {
entry:
  store 9, @req
  ret
}
func @main() {
entry:
  store @handler, @handler_slot
  %a = thread_create @worker, 0
  %b = thread_create @attacker, 0
  thread_join %a
  thread_join %b
  ret
}
)");
  const ModuleStatic ms(*m);
  EXPECT_EQ(ms.indirect_resolved_edges, 1u);

  const ir::Function* worker = m->find_function("worker");
  const ir::Instruction* read = find_instr(worker, ir::Opcode::kLoad, 0);
  const interp::CallStack stack{{worker, read}};

  const auto handler_site_found = [&](const vuln::VulnAnalysis& analysis) {
    for (const vuln::ExploitReport& e : analysis.exploits) {
      if (e.function != nullptr && e.function->name() == "handler" &&
          e.site != nullptr && e.site->opcode() == ir::Opcode::kLoad) {
        return true;
      }
    }
    return false;
  };

  vuln::VulnerabilityAnalyzer::Options blind;
  const vuln::VulnerabilityAnalyzer without(*m, blind);
  EXPECT_FALSE(handler_site_found(without.analyze_from(read, stack)));

  vuln::VulnerabilityAnalyzer::Options resolved;
  resolved.resolved_indirect = &ms.resolved_calls;
  const vuln::VulnerabilityAnalyzer with(*m, resolved);
  EXPECT_TRUE(handler_site_found(with.analyze_from(read, stack)));
}

// --- Cell split: one content node per cell where that is provably safe ---

/// The `make_analysis_module` shape of bench/micro_perf.cpp as MiniIR
/// text: worker i publishes its own buffer into @slots[i] and its own
/// handler into @fptrs[i], reads both back and calls the handler.
std::string analysis_module_text(int funcs) {
  const auto n = std::to_string(funcs);
  std::string out = "module static\nglobal @slots [" + n +
                    "] = 0\nglobal @fptrs [" + n + "] = 0\n";
  for (int i = 0; i < funcs; ++i) {
    out += "func @handler" + std::to_string(i) +
           "(ptr %p) -> i64 {\nentry:\n  %v = load %p\n  ret %v\n}\n";
  }
  for (int i = 0; i < funcs; ++i) {
    const auto k = std::to_string(i);
    out += "func @worker" + k + "() {\nentry:\n  %buf = alloca 4\n" +
           "  %slot = gep @slots, " + k + "\n  %in = gep %buf, " +
           std::to_string(i % 4) + "\n  store %in, %slot\n" +
           "  %back = load %slot\n  %deep = load %back\n" +
           "  %fslot = gep @fptrs, " + k + "\n  store @handler" + k +
           ", %fslot\n  %f = load %fslot\n  %r = callptr %f(%back)\n" +
           "  ret\n}\n";
  }
  out += "func @main() {\nentry:\n";
  for (int i = 0; i < funcs; ++i) {
    out += "  call @worker" + std::to_string(i) + "()\n";
  }
  return out + "  ret\n}\n";
}

TEST(PointsToCellSplitTest, EachWorkerSeesOnlyItsOwnSlot) {
  constexpr int kFuncs = 8;
  auto m = parse_ok(analysis_module_text(kFuncs));
  const PointsTo pt(*m);
  std::vector<PointsTo::ObjectId> bufs;
  std::vector<PointsTo::ObjectId> handlers;
  for (int i = 0; i < kFuncs; ++i) {
    const ir::Function* worker =
        m->find_function("worker" + std::to_string(i));
    ir::Function* handler = m->find_function("handler" + std::to_string(i));
    const PointsTo::ObjectId buf =
        id_of(pt, find_instr(worker, ir::Opcode::kAlloca));
    bufs.push_back(buf);
    handlers.push_back(id_of(pt, handler));

    // %back = load %slot: exactly this worker's buffer.
    const ir::Instruction* back = find_instr(worker, ir::Opcode::kLoad, 0);
    EXPECT_EQ(pt.points_to(back), std::vector<PointsTo::ObjectId>{buf});
    EXPECT_FALSE(pt.is_unknown(back));
    // callptr %f: exactly this worker's handler.
    const ir::Instruction* callptr = find_instr(worker, ir::Opcode::kCallPtr);
    EXPECT_EQ(pt.resolve_indirect(callptr),
              std::vector<ir::Function*>{handler});
    EXPECT_FALSE(pt.indirect_unresolved(callptr));
  }
  // The object-level view is still the union over the cells.
  std::sort(bufs.begin(), bufs.end());
  EXPECT_EQ(pt.object_points_to(id_of(pt, m->find_global("slots"))), bufs);
  EXPECT_EQ(pt.object_points_to(id_of(pt, m->find_global("fptrs"))),
            handlers);
  EXPECT_FALSE(
      pt.object_content_unknown(id_of(pt, m->find_global("slots"))));
}

/// @slots[0] holds @a and @slots[1] holds @b; %x loads cell 0. `init` is
/// @slots' initializer and `extra` is appended to @main's entry block.
std::string two_cell_module(const std::string& init,
                            const std::string& extra) {
  return "module m\nglobal @slots [2] = " + init +
         "\nglobal @a\nglobal @b\nglobal @other\n"
         "func @sink(ptr %p) {\nentry:\n  ret\n}\n"
         "func @main() {\nentry:\n"
         "  %s0 = gep @slots, 0\n  %s1 = gep @slots, 1\n"
         "  store @a, %s0\n  store @b, %s1\n  %x = load %s0\n" +
         extra + "  ret\n}\n";
}

TEST(PointsToCellSplitTest, ConstantInBoundsCellsSplit) {
  auto m = parse_ok(two_cell_module("0", "  %y = load @slots\n"));
  const PointsTo pt(*m);
  const ir::Function* main_fn = m->find_function("main");
  const PointsTo::ObjectId a = id_of(pt, m->find_global("a"));
  const PointsTo::ObjectId b = id_of(pt, m->find_global("b"));
  const std::vector<PointsTo::ObjectId> only_a{a};
  // Through the gep and through the bare address (cell 0) alike.
  EXPECT_EQ(pt.points_to(find_instr(main_fn, ir::Opcode::kLoad, 0)), only_a);
  EXPECT_EQ(pt.points_to(find_instr(main_fn, ir::Opcode::kLoad, 1)), only_a);
  // The address values themselves are unchanged by the split.
  const PointsTo::ObjectId slots = id_of(pt, m->find_global("slots"));
  EXPECT_EQ(pt.points_to(find_instr(main_fn, ir::Opcode::kGep, 1)),
            std::vector<PointsTo::ObjectId>{slots});
  EXPECT_EQ(pt.offset_range(find_instr(main_fn, ir::Opcode::kGep, 1)).lo, 1);
  EXPECT_EQ(pt.object_points_to(slots),
            (std::vector<PointsTo::ObjectId>{a, b}));
}

TEST(PointsToCellSplitTest, EscapingAddressKeepsObjectWhole) {
  struct Case {
    const char* name;
    std::string init;
    std::string extra;
  };
  const Case cases[] = {
      {"variable-index gep", "0",
       "  %i = input 0\n  %w = gep @slots, %i\n  %u = load %w\n"},
      {"out-of-range gep", "0", "  %o = gep @slots, 2\n  %u = load %o\n"},
      {"gep result stored as a value", "0", "  store %s1, @other\n"},
      {"gep result passed to a call", "0", "  call @sink(%s1)\n"},
      {"gep result merged through a phi", "0",
       "  jmp next\nnext:\n  %m = phi [%s1, entry]\n  %u = load %m\n"},
      {"unsafe initializer", "5000", ""},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto m = parse_ok(two_cell_module(c.init, c.extra));
    const PointsTo pt(*m);
    const PointsTo::ObjectId a = id_of(pt, m->find_global("a"));
    const PointsTo::ObjectId b = id_of(pt, m->find_global("b"));
    // The field-insensitive may-alias answer: cell 0 may hold either.
    const ir::Instruction* x =
        find_instr(m->find_function("main"), ir::Opcode::kLoad, 0);
    EXPECT_EQ(pt.points_to(x), (std::vector<PointsTo::ObjectId>{a, b}));
    EXPECT_EQ(pt.is_unknown(x), c.init != "0");
  }
}

TEST(PointsToCellSplitTest, PropagationsScaleLinearlyInWorkers) {
  // A work count, not a timer: with @slots and @fptrs split, each worker
  // adds a constant number of propagations (field-insensitively it was
  // one per worker per worker).
  const auto propagations = [](int funcs) {
    auto m = parse_ok(analysis_module_text(funcs));
    return PointsTo(*m).stats().propagations;
  };
  const std::size_t small = propagations(64);
  const std::size_t large = propagations(512);
  ASSERT_GT(small, 0u);
  EXPECT_LE(large, 10 * small) << "64 funcs: " << small
                               << ", 512 funcs: " << large;
}

// --- LockFacts: the lockset machinery extracted from the prescreen ---

TEST(LockFactsTest, MustLocksetTracksCriticalSections) {
  auto m = parse_ok(R"(module m
global @mu
global @g
func @main() {
entry:
  %before = load @g
  lock @mu
  store 1, @g
  unlock @mu
  %after = load @g
  ret
}
)");
  const ModuleStatic ms(*m);
  const LockFacts& facts = ms.lock_facts;
  ASSERT_FALSE(facts.all_undisciplined());

  PointsTo::ObjectId mu = 0;
  ASSERT_TRUE(facts.lock_token(
      find_instr(m->find_function("main"), ir::Opcode::kLock)->operand(0),
      mu));
  EXPECT_TRUE(facts.well_formed(mu));

  const ir::Function* main_fn = m->find_function("main");
  const ir::Instruction* guarded = find_instr(main_fn, ir::Opcode::kStore);
  ASSERT_TRUE(facts.has_fact(guarded));
  EXPECT_EQ(facts.must_held_before(guarded), LockFacts::LockSet{mu});
  // Loads outside the critical section hold nothing.
  EXPECT_TRUE(facts.must_held_before(
                  find_instr(main_fn, ir::Opcode::kLoad, 0)).empty());
  EXPECT_TRUE(facts.must_held_before(
                  find_instr(main_fn, ir::Opcode::kLoad, 1)).empty());

  // Both lock sites resolved, in module order: acquire then release.
  ASSERT_EQ(facts.lock_sites().size(), 2u);
  EXPECT_TRUE(facts.lock_sites()[0].is_acquire);
  EXPECT_FALSE(facts.lock_sites()[1].is_acquire);
  EXPECT_EQ(facts.lock_sites()[0].token, mu);
  EXPECT_EQ(facts.lock_sites()[1].token, mu);
}

TEST(LockFactsTest, UnprovenUnlockBreaksDiscipline) {
  // The second unlock does not provably hold @mu, so the token is not
  // well-formed — exactly the fact the lock-mismatch checker reports and
  // the prescreen uses to refuse "consistently locked" pruning.
  auto m = parse_ok(R"(module m
global @mu
global @g
func @main() {
entry:
  lock @mu
  store 1, @g
  unlock @mu
  unlock @mu
  ret
}
)");
  const ModuleStatic ms(*m);
  const LockFacts& facts = ms.lock_facts;
  PointsTo::ObjectId mu = 0;
  ASSERT_TRUE(facts.lock_token(
      find_instr(m->find_function("main"), ir::Opcode::kLock)->operand(0),
      mu));
  EXPECT_FALSE(facts.well_formed(mu));
}

TEST(LockFactsTest, CallsIntoReleasingFunctionsClearTheMustSet) {
  auto m = parse_ok(R"(module m
global @mu
global @g
func @releases() {
entry:
  unlock @mu
  ret
}
func @keeps() {
entry:
  %x = load @g
  ret
}
func @main() {
entry:
  lock @mu
  call @keeps()
  store 1, @g
  call @releases()
  store 2, @g
  ret
}
)");
  const ModuleStatic ms(*m);
  const LockFacts& facts = ms.lock_facts;
  const ir::Function* main_fn = m->find_function("main");
  EXPECT_FALSE(
      facts.function_may_release(m->find_function("keeps")));
  EXPECT_TRUE(
      facts.function_may_release(m->find_function("releases")));
  // The store after the non-releasing call keeps the lockset; the one
  // after the may-release call loses it.
  EXPECT_EQ(facts.must_held_before(find_instr(main_fn, ir::Opcode::kStore, 0))
                .size(),
            1u);
  EXPECT_TRUE(
      facts.must_held_before(find_instr(main_fn, ir::Opcode::kStore, 1))
          .empty());
}

TEST(LockFactsTest, SerializeIsRebuildDeterministic) {
  const std::string text = R"(module m
global @a
global @b
global @g
func @worker() {
entry:
  lock @a
  lock @b
  store 1, @g
  unlock @b
  unlock @a
  ret
}
func @main() {
entry:
  %t = thread_create @worker, 0
  thread_join %t
  ret
}
)";
  auto m1 = parse_ok(text);
  auto m2 = parse_ok(text);
  const ModuleStatic ms1(*m1);
  const ModuleStatic ms2(*m2);
  const std::string snapshot = ms1.lock_facts.serialize();
  EXPECT_FALSE(snapshot.empty());
  EXPECT_EQ(snapshot, ms2.lock_facts.serialize());
  // A second LockFacts over the same analysis inputs is also identical.
  const LockFacts rebuilt(*m1, ms1.points_to, ms1.resolved_calls);
  EXPECT_EQ(snapshot, rebuilt.serialize());
}

}  // namespace
}  // namespace owl::analysis
