#include "race/tsan_detector.hpp"

#include <algorithm>
#include <cassert>

#include "interp/memory.hpp"
#include "support/metrics.hpp"

namespace owl::race {

bool TsanDetector::prescreen_hit(const ir::Instruction* instr,
                                 interp::Address addr) const noexcept {
  return prescreen_.active() && addr >= interp::kNullGuard &&
         prescreen_.no_race_instr(instr);
}

void TsanDetector::on_access(const Access& access,
                             const interp::Machine& machine) {
  ++counters_.accesses;
  if (impl_ == DetectorImpl::kFast) {
    fast_on_access(access, machine);
  } else {
    ref_on_access(access, machine);
  }
}

void TsanDetector::on_sync(const Sync& sync, const interp::Machine& machine) {
  ++counters_.sync_events;
  if (impl_ == DetectorImpl::kFast) {
    fast_on_sync(sync, machine);
  } else {
    ref_on_sync(sync, machine);
  }
}

// ---------------------------------------------------------------------------
// Reference implementation — the original hash-map substrate, kept verbatim
// so the differential gate has a ground truth to compare the fast path
// against. Do not optimize this path.
// ---------------------------------------------------------------------------

AccessRecord TsanDetector::make_record(const Access& access,
                                       const interp::Machine& machine) const {
  AccessRecord rec;
  rec.tid = access.tid;
  rec.instr = access.instr;
  rec.addr = access.addr;
  rec.value = access.value;
  rec.is_write = access.is_write;
  if (const interp::Thread* t = machine.thread(access.tid)) {
    rec.stack = t->call_stack();
  }
  return rec;
}

VectorClock& TsanDetector::clock(ThreadId tid) {
  VectorClock& own = clocks_[tid];
  if (own.get(tid) == 0) own.set(tid, 1);
  return own;
}

void TsanDetector::ref_on_access(const Access& access,
                                 const interp::Machine& machine) {
  VectorClock& ct = clock(access.tid);
  Shadow& shadow = shadow_[access.addr];

  const bool annotated_release =
      annotations_ != nullptr && annotations_->is_release_store(access.instr);
  const bool annotated_acquire =
      annotations_ != nullptr && annotations_->is_acquire_load(access.instr);

  // Atomics and annotated accesses behave as synchronization: they carry
  // happens-before edges through the address and are never themselves racy.
  if (access.is_atomic || annotated_release || annotated_acquire) {
    VectorClock& sync = sync_clocks_[access.addr];
    if (access.is_atomic || annotated_acquire) {
      ct.join(sync);  // acquire side
    }
    const AccessRecord rec = make_record(access, machine);
    if (access.is_atomic || annotated_release) {
      // Publish the store event, then advance past it.
      if (access.is_write) {
        shadow.write = ShadowAccess{access.tid, ct.get(access.tid), rec};
        shadow.reads.clear();
      }
      sync.join(ct);  // release side
      ct.increment(access.tid);
    } else if (!access.is_write) {
      feed_watchers(rec);
    }
    return;
  }

  // Statically race-free plain access (analysis/prescreen): kOn skips the
  // shadow bookkeeping below entirely. Sound because pruned instructions can
  // only touch never-escaping or consistently-locked objects — disjoint
  // from any address that can race or sit on a watch list (DESIGN.md §9).
  if (prescreen_hit(access.instr, access.addr)) {
    ++counters_.prescreen_pruned;
    if (prescreen_.mode == support::AuditMode::kOn) return;
  }

  const AccessRecord rec = make_record(access, machine);
  ++counters_.clock_fallbacks;  // the reference substrate has no fast paths

  if (access.is_write) {
    if (shadow.write.has_value() && shadow.write->tid != access.tid &&
        !VectorClock::epoch_leq(shadow.write->tid, shadow.write->epoch, ct)) {
      record_race(shadow.write->rec, rec, machine);
    }
    for (const ShadowAccess& read : shadow.reads) {
      if (read.tid != access.tid &&
          !VectorClock::epoch_leq(read.tid, read.epoch, ct)) {
        record_race(read.rec, rec, machine);
      }
    }
    shadow.write = ShadowAccess{access.tid, ct.get(access.tid), rec};
    shadow.reads.clear();
    // A write sanitizes the watch list for this address (§6.3).
    if (ski_watch_mode_) watched_.erase(access.addr);
  } else {
    if (shadow.write.has_value() && shadow.write->tid != access.tid &&
        !VectorClock::epoch_leq(shadow.write->tid, shadow.write->epoch, ct)) {
      record_race(shadow.write->rec, rec, machine);
    }
    // Keep at most one read epoch per thread.
    bool replaced = false;
    for (ShadowAccess& read : shadow.reads) {
      if (read.tid == access.tid) {
        read.epoch = ct.get(access.tid);
        read.rec = rec;
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      shadow.reads.push_back(
          ShadowAccess{access.tid, ct.get(access.tid), rec});
    }
    feed_watchers(rec);
  }
}

void TsanDetector::ref_on_sync(const Sync& sync, const interp::Machine&) {
  VectorClock& ct = clock(sync.tid);
  switch (sync.kind) {
    case SyncKind::kLockAcquire:
      ct.join(lock_clocks_[sync.addr]);
      break;
    case SyncKind::kLockRelease:
      lock_clocks_[sync.addr] = ct;
      ct.increment(sync.tid);
      break;
    case SyncKind::kHbRelease:
      sync_clocks_[sync.addr].join(ct);
      ct.increment(sync.tid);
      break;
    case SyncKind::kHbAcquire:
      ct.join(sync_clocks_[sync.addr]);
      break;
    case SyncKind::kThreadCreate: {
      // The child's own component goes 0 -> 1 here, like a root thread's.
      const auto child = static_cast<ThreadId>(sync.addr);
      VectorClock& cc = clocks_[child];
      cc.join(ct);
      cc.increment(child);
      ct.increment(sync.tid);
      break;
    }
    case SyncKind::kThreadFinish:
      finished_clocks_[sync.tid] = ct;
      break;
    case SyncKind::kThreadJoin: {
      const auto target = static_cast<ThreadId>(sync.addr);
      auto it = finished_clocks_.find(target);
      if (it != finished_clocks_.end()) ct.join(it->second);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Fast implementation — paged shadow, epoch fast paths, dense clocks, lazy
// candidate capture. Every divergence from ref_on_access must be provably
// unobservable in the emitted reports; the comments below carry the proofs
// the differential gate then checks empirically.
// ---------------------------------------------------------------------------

VectorClock& TsanDetector::fast_clock(ThreadId tid) {
  if (tid >= fast_clocks_.size()) fast_clocks_.resize(tid + 1);
  VectorClock& own = fast_clocks_[tid];
  if (own.get(tid) == 0) own.set(tid, 1);  // see clock()
  return own;
}

AccessRecord TsanDetector::record_from_access(
    const Access& access, const interp::Machine& machine) const {
  AccessRecord rec;
  rec.tid = access.tid;
  rec.instr = access.instr;
  rec.addr = access.addr;
  rec.value = access.value;
  rec.is_write = access.is_write;
  // The context id was stamped while the accessing frame was still at
  // access.instr, so this reproduces Thread::call_stack() exactly.
  rec.stack = machine.contexts().call_stack(access.context, access.instr);
  ++counters_.lazy_materializations;
  return rec;
}

AccessRecord TsanDetector::record_from_cell(
    const ShadowCell& cell, interp::Address addr, bool is_write,
    const interp::Machine& machine) const {
  AccessRecord rec;
  rec.tid = cell.tid;
  rec.instr = cell.instr;
  rec.addr = addr;
  rec.value = cell.value;
  rec.is_write = is_write;
  // Context ids outlive frames, so this is the stack as of the recorded
  // access — not the thread's current one.
  rec.stack = machine.contexts().call_stack(cell.ctx, cell.instr);
  ++counters_.lazy_materializations;
  return rec;
}

void TsanDetector::fast_feed_watchers(const Access& access,
                                      const interp::Machine& machine) {
  if (watched_.empty()) return;
  if (watched_.find(access.addr) == watched_.end()) return;
  feed_watchers(record_from_access(access, machine));
}

void TsanDetector::fast_on_access(const Access& access,
                                  const interp::Machine& machine) {
  const bool annotated_release =
      annotations_ != nullptr && annotations_->is_release_store(access.instr);
  const bool annotated_acquire =
      annotations_ != nullptr && annotations_->is_acquire_load(access.instr);

  if (access.is_atomic || annotated_release || annotated_acquire) {
    VectorClock& ct = fast_clock(access.tid);
    VectorClock& sync = fast_sync_clocks_[access.addr];
    if (access.is_atomic || annotated_acquire) {
      ct.join(sync);  // acquire side
    }
    if (access.is_atomic || annotated_release) {
      if (access.is_write) {
        ShadowSlot& slot = fast_shadow_.slot(access.addr);
        slot.set_write(ShadowCell{access.tid, access.context,
                                  ct.get(access.tid), access.instr,
                                  access.value});
        slot.clear_reads();
      }
      sync.join(ct);  // release side
      ct.increment(access.tid);
    } else if (!access.is_write) {
      fast_feed_watchers(access, machine);
    }
    return;
  }

  // Statically race-free plain access: prune before the shadow-slot lookup
  // so provably-local traffic never materializes shadow pages (see the
  // matching comment in ref_on_access for the soundness argument).
  if (prescreen_hit(access.instr, access.addr)) {
    ++counters_.prescreen_pruned;
    if (prescreen_.mode == support::AuditMode::kOn) return;
  }

  ShadowSlot& slot = fast_shadow_.slot(access.addr);
  VectorClock& ct = fast_clock(access.tid);
  const std::uint64_t own_epoch = ct.get(access.tid);

  if (access.is_write) {
    // Same-owner store fast path (FastTrack's "same epoch" case): the last
    // write was ours and no reads intervened, so there is nothing to order
    // against — refresh the cell and leave. Requires an idle watch list:
    // the reference path would erase this address from it.
    if (slot.has_write && slot.write.tid == access.tid && !slot.has_reads() &&
        (!ski_watch_mode_ || watched_.empty())) {
      ++counters_.epoch_write_hits;
      slot.write = ShadowCell{access.tid, access.context, own_epoch,
                              access.instr, access.value};
      return;
    }
    ++counters_.clock_fallbacks;

    std::optional<AccessRecord> current;  // materialized at most once
    if (slot.has_write && slot.write.tid != access.tid &&
        !VectorClock::epoch_leq(slot.write.tid, slot.write.epoch, ct)) {
      current = record_from_access(access, machine);
      record_race(record_from_cell(slot.write, access.addr,
                                   /*is_write=*/true, machine),
                  *current, machine);
    }
    slot.for_each_read([&](const ShadowCell& read) {
      if (read.tid != access.tid &&
          !VectorClock::epoch_leq(read.tid, read.epoch, ct)) {
        if (!current.has_value()) {
          current = record_from_access(access, machine);
        }
        record_race(record_from_cell(read, access.addr, /*is_write=*/false,
                                     machine),
                    *current, machine);
      }
    });
    slot.set_write(ShadowCell{access.tid, access.context, own_epoch,
                              access.instr, access.value});
    slot.clear_reads();
    // A write sanitizes the watch list for this address (§6.3).
    if (ski_watch_mode_) watched_.erase(access.addr);
  } else {
    // Same-reader fast path: this thread already has a read cell here that
    // was checked race-free against the current shadow write. Every write
    // clears the read set (so the write cannot have changed while the cell
    // survives) and clocks only grow, so the check cannot newly fail —
    // refresh the cell and leave. Requires an idle watch list: the
    // reference path would feed this read to watchers.
    ShadowCell* own = slot.find_read(access.tid);
    if (own != nullptr && own->no_race && watched_.empty()) {
      ++counters_.epoch_read_hits;
      *own = ShadowCell{access.tid, access.context, own_epoch, access.instr,
                        access.value, /*no_race=*/true};
      return;
    }
    ++counters_.clock_fallbacks;

    bool raced = false;
    if (slot.has_write && slot.write.tid != access.tid &&
        !VectorClock::epoch_leq(slot.write.tid, slot.write.epoch, ct)) {
      raced = true;
      record_race(record_from_cell(slot.write, access.addr,
                                   /*is_write=*/true, machine),
                  record_from_access(access, machine), machine);
    }
    // Keep at most one read epoch per thread (replace in place to preserve
    // the reference's insertion-order iteration).
    const ShadowCell cell{access.tid, access.context, own_epoch, access.instr,
                          access.value, /*no_race=*/!raced};
    if (own != nullptr) {
      *own = cell;
    } else {
      slot.add_read(cell);
    }
    fast_feed_watchers(access, machine);
  }
}

void TsanDetector::fast_on_sync(const Sync& sync, const interp::Machine&) {
  switch (sync.kind) {
    case SyncKind::kLockAcquire:
      fast_clock(sync.tid).join(fast_lock_clocks_[sync.addr]);
      break;
    case SyncKind::kLockRelease: {
      VectorClock& ct = fast_clock(sync.tid);
      fast_lock_clocks_[sync.addr] = ct;
      ct.increment(sync.tid);
      break;
    }
    case SyncKind::kHbRelease: {
      VectorClock& ct = fast_clock(sync.tid);
      fast_sync_clocks_[sync.addr].join(ct);
      ct.increment(sync.tid);
      break;
    }
    case SyncKind::kHbAcquire:
      fast_clock(sync.tid).join(fast_sync_clocks_[sync.addr]);
      break;
    case SyncKind::kThreadCreate: {
      const auto child = static_cast<ThreadId>(sync.addr);
      // Grow for the child first and take its reference last: no resize
      // may come between taking the two (reallocation would invalidate
      // the first). The child's own component goes 0 -> 1 below.
      if (child >= fast_clocks_.size()) fast_clocks_.resize(child + 1);
      VectorClock& ct = fast_clock(sync.tid);
      VectorClock& cc = fast_clocks_[child];
      cc.join(ct);
      cc.increment(child);
      ct.increment(sync.tid);
      break;
    }
    case SyncKind::kThreadFinish:
      if (sync.tid >= fast_finished_.size()) {
        fast_finished_.resize(sync.tid + 1);
      }
      fast_finished_[sync.tid] = fast_clock(sync.tid);
      break;
    case SyncKind::kThreadJoin: {
      const auto target = static_cast<ThreadId>(sync.addr);
      // Slots a resize created but no finish filled hold empty clocks;
      // joining one is a no-op, matching the reference's map miss.
      if (target < fast_finished_.size()) {
        fast_clock(sync.tid).join(fast_finished_[target]);
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Shared report plumbing — byte-identical currency for both implementations.
// ---------------------------------------------------------------------------

void TsanDetector::record_race(const AccessRecord& prior,
                               const AccessRecord& current,
                               const interp::Machine& machine) {
  ++dynamic_races_;
  // Audit mode runs full detection; an access the prescreen would have
  // pruned showing up in a race falsifies the static no-race verdict.
  if (prescreen_.mode == support::AuditMode::kAudit) {
    if (prescreen_hit(prior.instr, prior.addr)) {
      ++counters_.prescreen_audit_violations;
    }
    if (prescreen_hit(current.instr, current.addr)) {
      ++counters_.prescreen_audit_violations;
    }
  }
  RaceReport probe;
  probe.first = prior;
  probe.second = current;
  const auto key = probe.key();

  auto it = index_.find(key);
  if (it != index_.end()) {
    ++reports_[it->second].occurrences;
    return;
  }

  probe.occurrences = 1;
  if (const interp::MemObject* obj =
          machine.memory().find_object(current.addr)) {
    probe.object_name = obj->name;
  }
  const std::size_t idx = reports_.size();
  index_.emplace(key, idx);

  // Write-write races lack a corrupted read for Algorithm 1; watch the
  // address so the first subsequent load can be attached (§6.3). SKI mode
  // watches every racy address and logs all reads until sanitized.
  const bool write_write = prior.is_write && current.is_write;
  if (write_write || ski_watch_mode_) {
    watched_[current.addr].push_back(idx);
  }
  reports_.push_back(std::move(probe));
}

void TsanDetector::feed_watchers(const AccessRecord& read) {
  auto it = watched_.find(read.addr);
  if (it == watched_.end()) return;
  // A pruned read feeding a watched report would have been dropped in kOn
  // mode and changed the report — count that as a violation too.
  if (prescreen_.mode == support::AuditMode::kAudit &&
      prescreen_hit(read.instr, read.addr)) {
    ++counters_.prescreen_audit_violations;
  }
  for (std::size_t idx : it->second) {
    RaceReport& report = reports_[idx];
    if (!report.supplemental_read.has_value()) {
      report.supplemental_read = read;
    }
    if (ski_watch_mode_) {
      report.watched_reads.push_back(read);
    }
  }
  if (!ski_watch_mode_) {
    watched_.erase(it);  // one supplemental read is all TSan mode needs
  }
}

void TsanDetector::flush_metrics() {
  // Substrate accounting is *advisory*: deterministic for one configuration
  // but legitimately different across substrate impls and prescreen modes
  // that CI requires to be report- and snapshot-identical. Only the emitted
  // report count is a behavioral metric.
  support::MetricsRegistry& registry = support::metrics();
  registry.advisory("detector.accesses").inc(counters_.accesses);
  registry.advisory("detector.sync_events").inc(counters_.sync_events);
  registry.advisory("detector.epoch_write_hits")
      .inc(counters_.epoch_write_hits);
  registry.advisory("detector.epoch_read_hits").inc(counters_.epoch_read_hits);
  registry.advisory("detector.clock_fallbacks").inc(counters_.clock_fallbacks);
  registry.advisory("detector.lazy_materializations")
      .inc(counters_.lazy_materializations);
  registry.counter("detector.reports_emitted").inc(reports_.size());
  // Delta, not the cumulative total: a reset-and-reused detector must
  // flush the same per-schedule page counts as a fresh one.
  registry.advisory("detector.shadow_pages")
      .inc(fast_shadow_.pages_allocated() - shadow_pages_flushed_);
  shadow_pages_flushed_ = fast_shadow_.pages_allocated();
  registry.advisory("prescreen.pruned_accesses")
      .inc(counters_.prescreen_pruned);
  registry.advisory("prescreen.audit_violations")
      .inc(counters_.prescreen_audit_violations);
  counters_ = SubstrateCounters{};  // flush-once: take_reports may re-run
}

void TsanDetector::reset() {
  clocks_.clear();
  lock_clocks_.clear();
  sync_clocks_.clear();
  finished_clocks_.clear();
  shadow_.clear();
  fast_shadow_.clear();
  // Keep the dense tables at size: an empty clock is observably identical
  // to a never-touched one (fast_finished_ explicitly treats empty as
  // "never finished"), and clearing in place keeps each clock's component
  // buffer for the next schedule.
  for (VectorClock& clock : fast_clocks_) clock.clear();
  for (VectorClock& clock : fast_finished_) clock.clear();
  fast_lock_clocks_.clear();
  fast_sync_clocks_.clear();
  index_.clear();
  reports_.clear();
  watched_.clear();
  dynamic_races_ = 0;
  counters_ = SubstrateCounters{};
}

std::vector<RaceReport> TsanDetector::take_reports() {
  flush_metrics();
  // Keys are unique in reports_ (record_race deduplicates on insert), so a
  // plain sort is deterministic.
  std::sort(reports_.begin(), reports_.end(), report_order);
  index_.clear();
  watched_.clear();
  return std::move(reports_);
}

void merge_reports(std::vector<RaceReport>& into,
                   std::vector<RaceReport>&& from) {
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, std::size_t,
                     ReportKeyHash>
      index;
  index.reserve(into.size() + from.size());
  for (std::size_t i = 0; i < into.size(); ++i) {
    index.emplace(into[i].key(), i);
  }
  for (RaceReport& report : from) {
    auto it = index.find(report.key());
    if (it == index.end()) {
      index.emplace(report.key(), into.size());
      into.push_back(std::move(report));
      continue;
    }
    RaceReport& existing = into[it->second];
    existing.occurrences += report.occurrences;
    if (!existing.supplemental_read.has_value()) {
      existing.supplemental_read = std::move(report.supplemental_read);
    }
    existing.watched_reads.insert(
        existing.watched_reads.end(),
        std::make_move_iterator(report.watched_reads.begin()),
        std::make_move_iterator(report.watched_reads.end()));
  }
  // Keys are unique after the merge loop, so stable vs unstable sort give
  // the same order; stable_sort documents that merge order is key order.
  std::stable_sort(into.begin(), into.end(), report_order);
}

}  // namespace owl::race
