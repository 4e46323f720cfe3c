// Happens-before (vector-clock) data-race detector — the TSan substrate.
//
// Subscribes to a Machine's memory and synchronization events and flags
// conflicting accesses unordered by happens-before. Reports are deduplicated
// by static instruction pair and carry both call stacks, matching the shape
// OWL consumes (§6.3):
//  - if an AnnotationSet is supplied, instructions annotated by the adhoc-
//    sync stage behave as release-stores/acquire-loads (TSan markups);
//  - for write-write races, the detector watches the address and attaches
//    the first subsequent load as the report's supplemental read — the
//    paper's modification so Algorithm 1 always has a corrupted read to
//    start from;
//  - in SKI mode (ski_detector.hpp) every subsequent read's call stack is
//    logged until a write sanitizes the address.
//
// Two implementations of the hot path live behind DetectorImpl:
//  - kFast (default): paged shadow memory, FastTrack-style epoch fast
//    paths, dense ThreadId-indexed clock tables, and lazy race-candidate
//    capture (call stacks rebuilt from interned context ids only when an
//    access actually races) — see DESIGN.md §2 "fast substrate";
//  - kReference: the original hash-map implementation, kept verbatim so
//    the CI differential gate can prove the fast path emits byte-identical
//    reports on every workload, seed, and jobs value.
#pragma once

#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "interp/machine.hpp"
#include "race/annotations.hpp"
#include "race/prescreen_view.hpp"
#include "race/report.hpp"
#include "race/shadow_memory.hpp"
#include "race/vector_clock.hpp"

namespace owl::race {

/// Which detection-substrate implementation runs the hot path. Both emit
/// byte-identical reports; kReference exists for the differential gate.
enum class DetectorImpl {
  kFast,
  kReference,
};

/// The --detector-impl vocabulary: "fast" | "reference".
inline std::string_view detector_impl_name(DetectorImpl impl) noexcept {
  return impl == DetectorImpl::kFast ? "fast" : "reference";
}
inline bool parse_detector_impl(std::string_view text,
                                DetectorImpl& out) noexcept {
  if (text == "fast") { out = DetectorImpl::kFast; return true; }
  if (text == "reference") { out = DetectorImpl::kReference; return true; }
  return false;
}

/// Hash for the (min instruction id, max instruction id) report key — the
/// report index is a flat hash instead of an ordered map; take_reports'
/// final sort provides the stable order.
struct ReportKeyHash {
  std::size_t operator()(
      const std::pair<std::uint64_t, std::uint64_t>& key) const noexcept {
    std::uint64_t h = key.first * 0x9E3779B97F4A7C15ull;
    h ^= key.second + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

class TsanDetector : public interp::Observer {
 public:
  /// `annotations` may be nullptr (first detection run). `ski_watch_mode`
  /// enables the §6.3 watch-list policy of logging all reads after a race.
  /// `prescreen` defaults to an inert view (mode off); in kOn mode plain
  /// accesses the static prescreen proved race-free skip all shadow work.
  explicit TsanDetector(const AnnotationSet* annotations = nullptr,
                        bool ski_watch_mode = false,
                        DetectorImpl impl = DetectorImpl::kFast,
                        PrescreenView prescreen = {})
      : annotations_(annotations), ski_watch_mode_(ski_watch_mode),
        impl_(impl), prescreen_(prescreen) {
    index_.reserve(16);
    if (impl_ == DetectorImpl::kFast) {
      fast_lock_clocks_.reserve(16);
      fast_sync_clocks_.reserve(16);
    }
  }

  void on_access(const Access& access,
                 const interp::Machine& machine) override;
  void on_sync(const Sync& sync, const interp::Machine& machine) override;

  DetectorImpl impl() const noexcept { return impl_; }

  /// Returns the detector to its just-constructed observable state while
  /// keeping every buffer's capacity (clock components, hash-table buckets,
  /// report storage). explore_schedules reuses one detector across its
  /// whole sweep through this instead of constructing a fresh one per
  /// schedule — the per-schedule allocation churn (one heap vector per
  /// thread clock per schedule) was bench-visible on the verifier hot loop.
  void reset();

  /// Deduplicated reports in stable (key) order. Also flushes this run's
  /// SubstrateCounters into the global MetricsRegistry (one atomic add per
  /// counter, so the hot path itself stays metric-free).
  std::vector<RaceReport> take_reports();
  const std::vector<RaceReport>& reports() const noexcept { return reports_; }

  /// Total dynamic race manifestations (>= reports().size()).
  std::uint64_t dynamic_race_count() const noexcept { return dynamic_races_; }

  /// Per-run substrate accounting (DESIGN.md §8): plain locals bumped on
  /// the hot path, flushed to the metrics registry by take_reports(). All
  /// values are schedule-deterministic — they depend on the event stream
  /// only, never on wall clock or worker interleaving.
  struct SubstrateCounters {
    std::uint64_t accesses = 0;         ///< on_access events seen
    std::uint64_t sync_events = 0;      ///< on_sync events seen
    std::uint64_t epoch_write_hits = 0; ///< same-owner store fast path taken
    std::uint64_t epoch_read_hits = 0;  ///< no_race repeated-read fast path
    std::uint64_t clock_fallbacks = 0;  ///< full vector-clock slow paths
    std::uint64_t lazy_materializations = 0;  ///< AccessRecords rebuilt
    std::uint64_t prescreen_pruned = 0;  ///< accesses the prescreen covers
    /// Audit mode only: a pruned-eligible access participated in a race or
    /// fed a watched report — a prescreen soundness violation (must be 0).
    std::uint64_t prescreen_audit_violations = 0;
  };
  const SubstrateCounters& substrate_counters() const noexcept {
    return counters_;
  }

 private:
  struct ShadowAccess {
    ThreadId tid = 0;
    std::uint64_t epoch = 0;
    AccessRecord rec;
  };
  struct Shadow {
    std::optional<ShadowAccess> write;
    std::vector<ShadowAccess> reads;  ///< reads since the last write
  };

  // --- reference implementation (DetectorImpl::kReference) ---
  void ref_on_access(const Access& access, const interp::Machine& machine);
  void ref_on_sync(const Sync& sync, const interp::Machine& machine);
  /// A thread's clock, its own component started at 1: epoch 0 is what
  /// every other clock sees of a thread it never synchronized with, so an
  /// access stamped 0 would read as ordered before all of them.
  VectorClock& clock(ThreadId tid);
  AccessRecord make_record(const Access& access,
                           const interp::Machine& machine) const;

  // --- fast implementation (DetectorImpl::kFast) ---
  void fast_on_access(const Access& access, const interp::Machine& machine);
  void fast_on_sync(const Sync& sync, const interp::Machine& machine);
  VectorClock& fast_clock(ThreadId tid);
  /// Materializes the full record for the in-flight access (lazy capture:
  /// only called once the access is a race candidate or watch-list food).
  AccessRecord record_from_access(const Access& access,
                                  const interp::Machine& machine) const;
  /// Materializes the record for a prior access from its shadow cell,
  /// rebuilding the as-of-access-time call stack from the interned context.
  AccessRecord record_from_cell(const ShadowCell& cell, interp::Address addr,
                                bool is_write,
                                const interp::Machine& machine) const;
  void fast_feed_watchers(const Access& access,
                          const interp::Machine& machine);

  // --- shared report plumbing (identical for both implementations) ---
  void record_race(const AccessRecord& prior, const AccessRecord& current,
                   const interp::Machine& machine);
  void feed_watchers(const AccessRecord& read);
  void flush_metrics();
  /// True when the prescreen covers this dynamic access: view active, the
  /// instruction is statically race-free, and the address really lies in
  /// object space (the null page is where corrupted-pointer traffic the
  /// static model cannot see lands, so it is never pruned).
  bool prescreen_hit(const ir::Instruction* instr,
                     interp::Address addr) const noexcept;

  const AnnotationSet* annotations_;
  bool ski_watch_mode_;
  DetectorImpl impl_;
  PrescreenView prescreen_;

  // Reference state: hash-map shadow and clock tables.
  std::unordered_map<ThreadId, VectorClock> clocks_;
  std::unordered_map<interp::Address, VectorClock> lock_clocks_;
  std::unordered_map<interp::Address, VectorClock> sync_clocks_;
  std::unordered_map<ThreadId, VectorClock> finished_clocks_;
  std::unordered_map<interp::Address, Shadow> shadow_;

  // Fast state: paged shadow, dense ThreadId-indexed clock tables (Machine
  // assigns tids sequentially from 0), reserved hash maps for the
  // address-keyed clocks. An empty clock in fast_finished_ means "never
  // finished" — joining an empty clock is a no-op, exactly like the
  // reference's map-miss.
  PagedShadow fast_shadow_;
  std::vector<VectorClock> fast_clocks_;
  std::vector<VectorClock> fast_finished_;
  std::unordered_map<interp::Address, VectorClock> fast_lock_clocks_;
  std::unordered_map<interp::Address, VectorClock> fast_sync_clocks_;

  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, std::size_t,
                     ReportKeyHash>
      index_;
  std::vector<RaceReport> reports_;
  /// Addresses whose reports still await a supplemental read / SKI logging.
  std::unordered_map<interp::Address, std::vector<std::size_t>> watched_;
  std::uint64_t dynamic_races_ = 0;
  /// Shadow pages already flushed to the metrics registry — flush_metrics
  /// records the delta so a reset-and-reused detector reports the same
  /// per-schedule page counts as a fresh one.
  std::uint64_t shadow_pages_flushed_ = 0;
  // mutable: the lazy-capture record builders are const member functions.
  mutable SubstrateCounters counters_;
};

/// Merges `from` into `into`, collapsing identical static pairs (summing
/// occurrence counts, keeping the earliest supplemental read, concatenating
/// SKI-watched reads). Used when aggregating multi-schedule explorations.
void merge_reports(std::vector<RaceReport>& into,
                   std::vector<RaceReport>&& from);

}  // namespace owl::race
