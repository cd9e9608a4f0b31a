#include "sim/system.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "fault/fault_plane.hpp"
#include "ml/plane_fold.hpp"
#include "snapshot/image.hpp"
#include "snapshot/registry.hpp"
#include "util/serial.hpp"

namespace valkyrie::sim {

// The compaction pass moves hot state between slots by plain assignment;
// these stay trivially copyable so the shift is a handful of memcpys and
// retirement snapshots cannot throw mid-compaction.
static_assert(std::is_trivially_copyable_v<util::Rng>);
static_assert(std::is_trivially_copyable_v<ResourceShares>);
static_assert(std::is_trivially_copyable_v<hpc::HpcSample>);
static_assert(std::is_trivially_copyable_v<ml::WindowAccumulator>);

namespace {

/// Capture-provenance ids: process-unique and never reused, unlike an
/// object address, so an image of a destroyed system can never be
/// mistaken for a capture of a new one built in its place.
std::uint64_t next_instance_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

SimSystem::SimSystem(const PlatformProfile& platform, std::uint64_t seed)
    : platform_(platform),
      rng_(seed),
      scheduler_(platform.scheduler),
      instance_(next_instance_id()) {}

ProcessId SimSystem::spawn(std::unique_ptr<Workload> workload) {
  if (workload == nullptr) {
    throw std::invalid_argument("SimSystem::spawn: null workload");
  }
  const auto pid = static_cast<ProcessId>(next_pid_++);

  const std::uint32_t row = alloc_row();
  ColdProc& cold = cold_[row];
  cold.workload = std::move(workload);
  if (!history_pool_.empty()) {
    // Retirement pool: inherit a retired process's history buffer,
    // capacity and all, so steady-state churn appends without allocating.
    cold.history = std::move(history_pool_.back());
    history_pool_.pop_back();
  }

  // The scheduler weight registers at spawn either way: totals are
  // live-list sums, so a pending pid's factor competes for nothing until
  // its admission commits — but weight state configured while pending
  // (apply_sched_threat_delta) survives the boundary like cgroup caps do.
  scheduler_.add_process(pid);
  if (epoch_open_) {
    // The hot arrays are frozen under the running dispatch: queue the
    // admission; it commits at the epoch boundary, in spawn order.
    pid_map_.insert(pid, {kPendingSlot, row});
    pending_admit_.push_back(pid);
    return pid;
  }
  pid_map_.insert(pid, {kNoSlot, row});  // admit_slot writes the real slot
  admit_slot(pid);
  return pid;
}

std::uint32_t SimSystem::alloc_row() {
  if (!free_rows_.empty()) {
    const std::uint32_t row = free_rows_.back();
    free_rows_.pop_back();
    return row;
  }
  cold_.emplace_back();
  row_written_.push_back(0);
  return static_cast<std::uint32_t>(cold_.size() - 1);
}

void SimSystem::admit_slot(ProcessId pid) {
  // New pids are maximal, so appending keeps the slot order ascending in
  // pid — the invariant the stable compaction preserves.
  const auto slot = static_cast<std::uint32_t>(slot_pid_.size());
  PidRec& rec = pid_map_.at(pid);
  rec.slot = slot;
  slot_pid_.push_back(pid);
  row_s_.push_back(rec.row);
  rng_s_.push_back(rng_.fork());
  // Seeded from the retired snapshot, not default-constructed: caps set
  // while the admission was pending were routed there, and must apply
  // from the process's first epoch. A fresh pid's snapshot is all
  // defaults, so the common path is unchanged.
  cgroup_s_.push_back(cold_[rec.row].retired.cgroup);
  effective_s_.emplace_back();
  last_sample_s_.emplace_back();
  accum_s_.emplace_back();
  last_progress_s_.push_back(0.0);
  epochs_run_s_.push_back(0);
  exit_s_.push_back(ExitReason::kRunning);
  invalid_streak_s_.push_back(0);
  feature_streak_s_.push_back({});

  if (plane_enabled_) {
    plane_count_.push_back(0);
    plane_window_.push_back({});
    plane_window_wrap_.push_back({});
    if (fold_enabled_) {
      fold_mask_.push_back(0);
      fold_pending_.push_back(0);
    }
    reserve_plane();
    if (fold_enabled_) {
      // The column may carry a retired process's Welford rows (capacity is
      // never released); in fold mode the plane is authoritative window
      // state, so a fresh admission must start from zeroed statistics.
      double* col = plane_.data() + slot;
      for (std::size_t r = 0; r < plane_rows_used(); ++r) {
        col[r * plane_stride_] = 0.0;
      }
    }
  }
}

void SimSystem::reserve(std::size_t max_processes) {
  if (epoch_open_) {
    throw std::logic_error("SimSystem::reserve: epoch in progress");
  }
  cold_.reserve(max_processes);
  row_written_.reserve(max_processes);
  free_rows_.reserve(max_processes);
  pid_map_.reserve(max_processes);
  // The retire queue's lazy prefix compaction lets up to kRetireCompactMin
  // drained entries sit ahead of the pending ones before the erase fires,
  // so the vector's length peaks at pending + max(kRetireCompactMin,
  // pending) — reserve that, or the first compaction cycle of a
  // steady-state churn run would reallocate once.
  retire_queue_.reserve(2 * max_processes + kRetireCompactMin);
  slot_pid_.reserve(max_processes);
  row_s_.reserve(max_processes);
  factor_s_.reserve(max_processes);
  rng_s_.reserve(max_processes);
  cgroup_s_.reserve(max_processes);
  effective_s_.reserve(max_processes);
  last_sample_s_.reserve(max_processes);
  accum_s_.reserve(max_processes);
  last_progress_s_.reserve(max_processes);
  epochs_run_s_.reserve(max_processes);
  exit_s_.reserve(max_processes);
  invalid_streak_s_.reserve(max_processes);
  feature_streak_s_.reserve(max_processes);
  pending_admit_.reserve(max_processes);
  pending_kill_.reserve(max_processes);
  lifecycle_scratch_.reserve(max_processes);
  history_pool_.reserve(max_processes);
  scheduler_.reserve(max_processes);
  if (max_processes > reserved_capacity_) {
    reserved_capacity_ = max_processes;
    if (plane_enabled_) {
      plane_count_.reserve(max_processes);
      plane_window_.reserve(max_processes);
      plane_window_wrap_.reserve(max_processes);
      if (fold_enabled_) {
        fold_mask_.reserve(max_processes);
        fold_pending_.reserve(max_processes);
      }
      reserve_plane();
    }
  }
}

void SimSystem::enable_feature_plane(ml::Detector::PlaneSections sections) {
  if (epoch_open_) {
    throw std::logic_error("SimSystem::enable_feature_plane: epoch open");
  }
  // Re-enabling widens the maintained section set (two drivers with
  // different needs compose); it never narrows under an existing driver.
  plane_newest_ |= sections != ml::Detector::PlaneSections::kStatsOnly;
  plane_stats_ |= sections != ml::Detector::PlaneSections::kNewestOnly;
  plane_windows_ |= sections == ml::Detector::PlaneSections::kFull;
  if (plane_enabled_) return;
  plane_enabled_ = true;
  plane_count_.reserve(reserved_capacity_);
  plane_window_.reserve(reserved_capacity_);
  plane_window_wrap_.reserve(reserved_capacity_);
  plane_count_.assign(slot_pid_.size(), 0);
  plane_window_.assign(slot_pid_.size(), {});
  plane_window_wrap_.assign(slot_pid_.size(), {});
  reserve_plane();
}

void SimSystem::enable_plane_major_fold() {
  if (epoch_open_) {
    throw std::logic_error("SimSystem::enable_plane_major_fold: epoch open");
  }
  if (fold_enabled_) return;
  // The fold both stages into the newest rows and maintains the stats
  // rows, so the plane must carry them regardless of what any driver's
  // detector declared; widening-only, like enable_feature_plane.
  enable_feature_plane(ml::Detector::PlaneSections::kNewestOnly);
  enable_feature_plane(ml::Detector::PlaneSections::kStatsOnly);
  fold_enabled_ = true;
  fold_mask_.reserve(reserved_capacity_);
  fold_pending_.reserve(reserved_capacity_);
  fold_mask_.assign(slot_pid_.size(), 0);
  fold_pending_.assign(slot_pid_.size(), 0);
  // Grow the plane to carry the m2/fold-count row groups, then hand the
  // authoritative Welford state over from the slot accumulators.
  reserve_plane();
  plane_.resize(plane_rows_used() * plane_stride_, 0.0);
  scatter_accums_to_plane();
}

void SimSystem::reserve_plane() {
  if (!plane_enabled_) return;
  // Pad the stride to a full cache line of doubles so feature rows keep a
  // fixed 64-byte-aligned distance. Admissions that cross the stride at
  // least double it, so n admissions before any reserve() cost O(log n)
  // plane rewrites, not O(n). reserve() floors the stride at the reserved
  // capacity, so churn admissions after a reserve never regrow the plane.
  constexpr std::size_t kPad = 8;
  std::size_t want = reserved_capacity_;
  if (slot_pid_.size() > plane_stride_) {
    want = std::max({want, slot_pid_.size(), 2 * plane_stride_});
  }
  const std::size_t stride = (want + kPad - 1) / kPad * kPad;
  if (stride <= plane_stride_) return;
  const std::size_t rows = plane_rows_used();
  if (fold_enabled_ && plane_stride_ != 0) {
    // Fold mode: the plane IS the window state — migrate every existing
    // column into the wider buffer instead of wiping.
    std::vector<double> grown(rows * stride, 0.0);
    const std::size_t cols = std::min(plane_stride_, slot_pid_.size());
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy_n(plane_.data() + r * plane_stride_, cols,
                  grown.data() + r * stride);
    }
    plane_ = std::move(grown);
  } else {
    // Old columns need no migration: every live column is rewritten by the
    // next epoch's per-slot phase before any batch kernel reads it.
    plane_.assign(rows * stride, 0.0);
  }
  plane_stride_ = stride;
}

ml::SummaryMatrixView SimSystem::feature_plane() const noexcept {
  ml::SummaryMatrixView view;
  view.newest = plane_.data();
  view.mean = plane_.data() + hpc::kFeatureDim * plane_stride_;
  view.stddev = plane_.data() + 2 * hpc::kFeatureDim * plane_stride_;
  view.counts = plane_count_.data();
  // Absent spans read as empty windows; a detector that declared a
  // narrower section set promised not to need them.
  view.windows = plane_windows_ ? plane_window_.data() : nullptr;
  view.windows_wrap = plane_windows_ ? plane_window_wrap_.data() : nullptr;
  view.count = slot_pid_.size();
  view.stride = plane_stride_;
  return view;
}

void SimSystem::fold_plane_range(std::size_t begin, std::size_t end) {
  if (!fold_enabled_) return;
  end = std::min(end, fold_pending_.size());
  // Narrow to the staged sub-range so an idempotent safety-net call over
  // an already-folded epoch touches nothing.
  while (begin < end && fold_pending_[begin] == 0) ++begin;
  while (end > begin && fold_pending_[end - 1] == 0) --end;
  if (begin == end) return;
  ml::PlaneFoldRows rows;
  double* base = plane_.data();
  rows.newest = base;
  rows.mean = base + hpc::kFeatureDim * plane_stride_;
  rows.stddev = base + 2 * hpc::kFeatureDim * plane_stride_;
  rows.m2 = base + kPlaneRows * plane_stride_;
  rows.fcount = base + (kPlaneRows + hpc::kFeatureDim) * plane_stride_;
  rows.stride = plane_stride_;
  ml::fold_plane_columns(rows, fold_pending_.data(), fold_mask_.data(), begin,
                         end);
  for (std::size_t s = begin; s < end; ++s) {
    if (fold_pending_[s] != 0) {
      ++plane_count_[s];
      fold_pending_[s] = 0;
    }
  }
}

ml::WindowAccumulator::State SimSystem::fold_state(std::size_t slot) const {
  ml::WindowAccumulator::State st;
  st.count = plane_count_[slot];
  st.newest_mask = fold_mask_[slot];
  const double* col = plane_.data() + slot;
  for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
    st.newest[f] = col[f * plane_stride_];
    st.mean[f] = col[(hpc::kFeatureDim + f) * plane_stride_];
    st.m2[f] = col[(kPlaneRows + f) * plane_stride_];
    // Fold counts are whole numbers carried as doubles (exact <= 2^53).
    st.fcount[f] = static_cast<std::size_t>(
        col[(kPlaneRows + hpc::kFeatureDim + f) * plane_stride_]);
  }
  return st;
}

void SimSystem::scatter_accums_to_plane() {
  const std::size_t stride = plane_stride_;
  for (std::size_t s = 0; s < slot_pid_.size(); ++s) {
    const ml::WindowAccumulator& acc = accum_s_[s];
    const ml::WindowAccumulator::State st = acc.state();
    double* col = plane_.data() + s;
    acc.store_newest_column(col, stride);
    acc.store_stats_columns(col + hpc::kFeatureDim * stride,
                            col + 2 * hpc::kFeatureDim * stride, stride);
    for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
      col[(kPlaneRows + f) * stride] = st.m2[f];
      col[(kPlaneRows + hpc::kFeatureDim + f) * stride] =
          static_cast<double>(st.fcount[f]);
    }
    plane_count_[s] = st.count;
    fold_mask_[s] = st.newest_mask;
    fold_pending_[s] = 0;
  }
}

void SimSystem::enable_counter_rng() {
  if (epoch_open_) {
    throw std::logic_error("SimSystem::enable_counter_rng: epoch open");
  }
  if (counter_rng_) return;
  counter_rng_ = true;
  // Each stream's counter seed derives from one draw of its current state,
  // so the switch is deterministic and fork() from the converted master
  // hands counter-mode children to every later admission.
  rng_ = util::Rng::counter_stream(rng_());
  for (util::Rng& r : rng_s_) r = util::Rng::counter_stream(r());
}

SimSystem::HistoryView SimSystem::ring_view(const ColdProc& cold) noexcept {
  return {{cold.history.data() + cold.head, cold.history.size() - cold.head},
          {cold.history.data(), cold.head}};
}

SimSystem::PidRec SimSystem::rec_checked(ProcessId pid) const {
  const PidRec* rec = pid_map_.find(pid);
  if (rec == nullptr) {
    throw std::out_of_range("SimSystem: unknown process id");
  }
  return *rec;
}

void SimSystem::begin_epoch() {
  if (epoch_open_) {
    throw std::logic_error("SimSystem::begin_epoch: epoch already open");
  }
  // Slots killed since the last epoch retire now, in one pass — a
  // step_slot on a stale slot would re-execute a dead process.
  if (retire_pending_) retire_dead_slots();
  // Serial global phase: ONE batched prefetching gather of the live list's
  // raw factors into the slot-indexed cache, then a slot-order sum. Every
  // per-slot share below is then a pure function of factor_s_[slot] — the
  // epoch loop never probes the hash table. The sum visits the same
  // factors in the same (ascending-pid) order as the dense era's live-list
  // pass, so the total is bit-identical.
  const std::size_t live = slot_pid_.size();
  factor_s_.resize(live);
  scheduler_.gather_factors(slot_pid_, factor_s_);
  double total = scheduler_.config().background_weight_units;
  for (const double factor : factor_s_) total += std::max(factor, 0.0);
  epoch_total_weight_ = total;
  epoch_any_exited_.store(false, std::memory_order_relaxed);
  epoch_open_ = true;
}

bool SimSystem::step_slot(std::size_t slot) {
  if (!epoch_open_ || slot >= slot_pid_.size()) {
    throw std::logic_error("SimSystem::step_slot: no open epoch / bad slot");
  }
  // Effective CPU share: the scheduler's (possibly demoted) share capped
  // by any cgroup CPU quota. Other resources come from cgroup caps alone.
  // The share comes from the factor cache begin_epoch gathered — same bits
  // as normalized_share(pid, total), no hash probe on the hot path.
  const ResourceShares& cg = cgroup_s_[slot];
  ResourceShares eff;
  eff.cpu = std::min(
      CfsScheduler::share_from_factor(factor_s_[slot], epoch_total_weight_),
      cg.cpu);
  eff.mem = cg.mem;
  eff.net = cg.net;
  eff.fs = cg.fs;
  effective_s_[slot] = eff;

  // Counter-mode streams rebase to (stream seed, epoch, draw 0) here, so a
  // slot's epoch draws are a pure function of its seed and the epoch —
  // independent of every other slot and of any draws a previous epoch made.
  if (counter_rng_) rng_s_[slot].set_epoch(epoch_);

  EpochContext ctx;
  ctx.epoch = epoch_;
  ctx.epoch_ms = platform_.epoch_ms;
  ctx.hpc_noise = platform_.hpc_noise;
  ctx.rng = &rng_s_[slot];

  ColdProc& cold = cold_[row_s_[slot]];
  StepResult step = cold.workload->run_epoch(eff, ctx);
  // Sensor fault plane (armed only): inject this (epoch, pid)'s scheduled
  // fault into the captured sample, then validate it. A quarantined sample
  // commits NOTHING to the window state — no last_sample update, no
  // history append, no accumulator fold — so garbage never reaches a
  // detector or a snapshot; the slot coasts on its last-known statistics
  // and the streak below tells the engine how stale they are. Execution
  // state (progress, epochs_run, the per-slot RNG) advances regardless:
  // the process ran, only its telemetry was lost.
  std::uint32_t stale_mask = 0;
  const bool quarantined =
      sensor_faults_ != nullptr &&
      inject_and_validate(slot, step.hpc, stale_mask);
  if (quarantined) {
    ++invalid_streak_s_[slot];
    for (std::uint32_t& fs : feature_streak_s_[slot]) ++fs;
  } else {
    invalid_streak_s_[slot] = 0;
    last_sample_s_[slot] = step.hpc;
    if (cold.history.size() == ml::kHistoryWindow) {
      // Full ring: overwrite the oldest retained sample in place.
      cold.history[cold.head] = step.hpc;
      cold.head = cold.head + 1 == ml::kHistoryWindow ? 0 : cold.head + 1;
    } else {
      cold.history.push_back(step.hpc);
    }
    if (fold_enabled_) {
      // Plane-major fold: STAGE the sample's features into the slot's
      // newest-row column and flag it; the cross-slot kernel folds every
      // staged column after the range's step loop (fold_plane_range).
      hpc::to_features(step.hpc, plane_.data() + slot, plane_stride_);
      fold_mask_[slot] = stale_mask;
      fold_pending_[slot] = 1;
    } else if (stale_mask != 0) {
      // Partial quarantine: the sample was repaired in place (bad columns
      // held at their last committed values) — commit it, but exclude the
      // repaired columns from the window statistics.
      accum_s_[slot].add_masked(step.hpc, stale_mask);
    } else {
      accum_s_[slot].add(step.hpc);
    }
    if (stale_mask != 0) {
      std::array<std::uint32_t, hpc::kFeatureDim>& fs = feature_streak_s_[slot];
      for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
        if (stale_mask & (1u << f)) {
          ++fs[f];
        } else {
          fs[f] = 0;
        }
      }
    } else if (sensor_faults_ != nullptr) {
      feature_streak_s_[slot].fill(0);
    }
  }
  last_progress_s_[slot] = step.progress;
  ++epochs_run_s_[slot];
  if (plane_enabled_) {
    if (!fold_enabled_) {
      // The slot's plane column — the same bits window_summary() would
      // assemble, written while the accumulator state is register/L1-hot,
      // and only the sections the batch driver's detector actually reads
      // (a vote detector skips the mean/stddev stores and their stddev
      // square roots entirely). Distinct slots write distinct columns, so
      // the plane fill shards with the rest of the per-slot phase.
      double* col = plane_.data() + slot;
      const ml::WindowAccumulator& acc = accum_s_[slot];
      if (plane_newest_) acc.store_newest_column(col, plane_stride_);
      if (plane_stats_) {
        acc.store_stats_columns(col + hpc::kFeatureDim * plane_stride_,
                                col + 2 * hpc::kFeatureDim * plane_stride_,
                                plane_stride_);
      }
      plane_count_[slot] = acc.count();
    }
    // Fold mode leaves the count to fold_plane_range (a quarantined epoch
    // stages nothing, so the count correctly stands still).
    if (plane_windows_) {
      const HistoryView ring = ring_view(cold);
      plane_window_[slot] = ring.older;
      plane_window_wrap_[slot] = ring.newer;
    }
  }
  if (step.finished) {
    exit_s_[slot] = ExitReason::kCompleted;
    epoch_any_exited_.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool SimSystem::inject_and_validate(std::size_t slot, hpc::HpcSample& sample,
                                    std::uint32_t& stale_mask) {
  stale_mask = 0;
  const auto pid = static_cast<std::uint32_t>(slot_pid_[slot]);
  const fault::FaultPlane& plane = *sensor_faults_;
  const fault::SensorFaultKind kind = plane.sensor_fault(epoch_, pid);

  if (!plane.sensor.per_feature()) {
    // Whole-sample path (feature_fraction == 1), byte-identical to the
    // pre-partial pipeline.
    switch (kind) {
      case fault::SensorFaultKind::kNone:
        break;
      case fault::SensorFaultKind::kDropout:
        return true;  // the sample never arrived
      case fault::SensorFaultKind::kStuck:
        // A counter stuck before the first sample ever landed has nothing
        // to repeat — it reads as a dropout.
        if (epochs_run_s_[slot] == 0) return true;
        sample = last_sample_s_[slot];
        break;
      case fault::SensorFaultKind::kNaN:
        sample.counts.fill(std::numeric_limits<double>::quiet_NaN());
        break;
      case fault::SensorFaultKind::kSaturated:
        sample.counts.fill(fault::kSaturationValue);
        break;
    }
    // Validation (the honest half of the pipeline): non-finite or
    // saturated values are transport garbage, and a bit-exact repeat of
    // the previous sample is a stuck counter bank — continuous measurement
    // noise makes a genuine repeat vanishingly unlikely, and this check
    // only runs while a fault plane is armed.
    for (const double c : sample.counts) {
      if (!std::isfinite(c) || c >= fault::kSaturationThreshold) return true;
    }
    return epochs_run_s_[slot] > 0 &&
           std::memcmp(&sample, &last_sample_s_[slot], sizeof(sample)) == 0;
  }

  // Per-feature path: the fault hits the columns sensor_feature_mask
  // selects, validation re-derives the bad set per column (it never trusts
  // the injector), and a partially-bad sample is repaired instead of
  // dropped. A dropout is still the whole sample — the transport lost it,
  // there are no columns to save.
  if (kind == fault::SensorFaultKind::kDropout) return true;
  const bool first = epochs_run_s_[slot] == 0;
  const hpc::HpcSample& held = last_sample_s_[slot];
  if (kind != fault::SensorFaultKind::kNone) {
    // A first-epoch fault has no committed value to hold or repair from:
    // the whole sample quarantines, exactly like the whole-sample path's
    // stuck-before-first rule.
    if (first) return true;
    const std::uint32_t inject = plane.sensor_feature_mask(epoch_, pid);
    for (std::size_t f = 0; f < hpc::kNumEvents; ++f) {
      if (!(inject & (1u << f))) continue;
      switch (kind) {
        case fault::SensorFaultKind::kStuck:
          sample.counts[f] = held.counts[f];
          break;
        case fault::SensorFaultKind::kNaN:
          sample.counts[f] = std::numeric_limits<double>::quiet_NaN();
          break;
        case fault::SensorFaultKind::kSaturated:
          sample.counts[f] = fault::kSaturationValue;
          break;
        case fault::SensorFaultKind::kNone:
        case fault::SensorFaultKind::kDropout:
          break;  // unreachable
      }
    }
  }
  // Per-column validation: non-finite / saturated transport garbage, plus
  // a bit-exact repeat of the column's last committed value (a stuck
  // counter; continuous measurement noise makes a genuine single-column
  // repeat vanishingly unlikely).
  std::uint32_t bad = 0;
  for (std::size_t f = 0; f < hpc::kNumEvents; ++f) {
    const double c = sample.counts[f];
    if (!std::isfinite(c) || c >= fault::kSaturationThreshold) {
      bad |= 1u << f;
      continue;
    }
    if (!first &&
        std::memcmp(&sample.counts[f], &held.counts[f], sizeof(double)) == 0) {
      bad |= 1u << f;
    }
  }
  if (bad == 0) return false;
  constexpr std::uint32_t kAll = (1u << hpc::kNumEvents) - 1;
  if (first || bad == kAll) return true;  // nothing healthy left to commit
  // Cycles is the shared denominator of every rate feature to_features
  // derives: holding it at a stale value would skew ALL columns while
  // stale_mask flagged only the cycles bit (itself a no-op — the cycles
  // feature is pinned to 0). No column is repairable through a lying
  // denominator, so the whole sample quarantines.
  constexpr std::uint32_t kCyclesBit =
      1u << static_cast<std::uint32_t>(hpc::Event::kCycles);
  if (bad & kCyclesBit) return true;
  // Repair: hold each bad column at its last committed value so the sample
  // entering history/last_sample carries no garbage; the caller's masked
  // fold keeps the repaired columns out of the statistics.
  for (std::size_t f = 0; f < hpc::kNumEvents; ++f) {
    if (bad & (1u << f)) sample.counts[f] = held.counts[f];
  }
  stale_mask = bad;
  return false;
}

void SimSystem::arm_sensor_faults(const fault::FaultPlane* plane) {
  if (epoch_open_) {
    throw std::logic_error("SimSystem::arm_sensor_faults: epoch open");
  }
  // Fail loudly at arm time: a degenerate rate (NaN, negative, > 1) would
  // otherwise just skew a hash threshold into never/always firing.
  if (plane != nullptr) plane->validate();
  sensor_faults_ = plane;
}

std::uint64_t SimSystem::invalid_streak(ProcessId pid) const {
  const std::uint32_t slot = rec_checked(pid).slot;
  return is_hot_slot(slot) ? invalid_streak_s_[slot] : 0;
}

std::array<std::uint32_t, hpc::kFeatureDim> SimSystem::feature_streaks(
    ProcessId pid) const {
  const std::uint32_t slot = rec_checked(pid).slot;
  return is_hot_slot(slot) ? feature_streak_s_[slot]
                           : std::array<std::uint32_t, hpc::kFeatureDim>{};
}

void SimSystem::end_epoch() {
  if (!epoch_open_) {
    throw std::logic_error("SimSystem::end_epoch: no open epoch");
  }
  // Fold safety net: a driver that stepped slots without folding its
  // ranges still closes the epoch with consistent plane statistics. The
  // staging flags make this idempotent — already-folded ranges are no-ops.
  if (fold_enabled_) fold_plane_range(0, slot_pid_.size());
  epoch_open_ = false;
  ++epoch_;
  commit_lifecycle();
}

void SimSystem::abort_epoch() {
  // The epoch did not complete (epoch_ stays), but shards may have marked
  // completions and callers may have queued lifecycle deltas — both must
  // still commit, or a retry would re-execute finished workloads or lose
  // an admission. Idempotent: layered drivers (engine catch blocks, a
  // supervisor unwinding through them) may each try to abort the same
  // failed epoch, and only the first may commit — a second commit at a
  // closed boundary would double-apply queued deltas.
  if (!epoch_open_) return;
  // Slots that staged before the dispatch failed did commit their samples
  // (history append happens with staging), so their statistics must fold
  // before the lifecycle commit snapshots any retiring slot.
  if (fold_enabled_) fold_plane_range(0, slot_pid_.size());
  epoch_open_ = false;
  commit_lifecycle();
}

void SimSystem::commit_lifecycle() {
  // (1) Deferred kills mark their slots. A slot that completed naturally
  // during the epoch keeps kCompleted: the process finished before the
  // kill could land.
  for (const ProcessId pid : pending_kill_) {
    const std::uint32_t slot = pid_map_.at(pid).slot;
    if (is_hot_slot(slot) && exit_s_[slot] == ExitReason::kRunning) {
      exit_s_[slot] = ExitReason::kKilled;
      epoch_any_exited_.store(true, std::memory_order_relaxed);
    }
  }
  pending_kill_.clear();
  // (2) One stable compaction pass retires completions and kills together.
  if (epoch_any_exited_.load(std::memory_order_relaxed)) retire_dead_slots();
  // (3) Admissions append in spawn order, after compaction, so the slot
  // order stays ascending-pid. Cancelled admissions (killed while
  // pending) were already diverted to the retired state by kill().
  for (const ProcessId pid : pending_admit_) {
    if (pid_map_.at(pid).slot != kPendingSlot) continue;  // cancelled
    admit_slot(pid);
  }
  pending_admit_.clear();
  // (4) Retention-window reclamation, LAST: a cancelled admission queued
  // for reclaim must still be visible to step (3)'s cancellation check at
  // this boundary before its map entry can ever be dropped.
  drain_retired();
}

void SimSystem::run_epoch() {
  begin_epoch();
  try {
    for (std::size_t slot = 0; slot < slot_pid_.size(); ++slot) {
      (void)step_slot(slot);
    }
  } catch (...) {
    abort_epoch();
    throw;
  }
  // end_epoch runs the plane-major fold (no-op unless armed).
  end_epoch();
}

void SimSystem::run_epochs(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) run_epoch();
}

void SimSystem::reserve_history(std::size_t epochs) {
  for (const std::uint32_t row : row_s_) {
    std::vector<hpc::HpcSample>& history = cold_[row].history;
    history.reserve(std::min(history.size() + epochs, ml::kHistoryWindow));
  }
}

void SimSystem::reclaim_cold(std::uint32_t row) {
  ColdProc& cold = cold_[row];
  // Retirement pool: the history buffer (capacity intact) feeds the next
  // admission; the workload is destroyed. The scalar retirement snapshot
  // stays, so the cheap post-mortem observers keep answering.
  // A capacity-less buffer (a cancelled admission that never inherited
  // one) is not worth pooling: popping it later would hand a fresh
  // process an empty buffer in place of a real donation.
  if (cold.history.capacity() != 0) {
    cold.history.clear();
    history_pool_.push_back(std::move(cold.history));
    cold.history = {};
  }
  cold.head = 0;
  cold.workload.reset();
  stamp(row);
}

void SimSystem::release_row(std::uint32_t row) {
  // Full reclaim: everything reclaim_cold leaves behind goes too — the
  // retirement snapshot resets and the row returns to the free pool for
  // the next spawn. The history buffer is donated even without recycling
  // armed (spawn consumes the pool unconditionally), so a retention-bound
  // run recycles buffers at reclaim granularity.
  reclaim_cold(row);
  cold_[row].retired = RetiredState{};
  free_rows_.push_back(row);
}

void SimSystem::enable_retirement_retention(std::uint64_t window_epochs) {
  if (epoch_open_) {
    throw std::logic_error(
        "SimSystem::enable_retirement_retention: epoch open");
  }
  if (window_epochs == 0) {
    // Drivers read exit state at the boundary that retires a process; a
    // zero window would reclaim it out from under them mid-commit.
    throw std::invalid_argument(
        "SimSystem::enable_retirement_retention: zero window");
  }
  retention_enabled_ = true;
  retention_epochs_ = window_epochs;
}

void SimSystem::drain_retired() {
  if (!retention_enabled_) return;
  while (retire_head_ < retire_queue_.size()) {
    const RetiredPid entry = retire_queue_[retire_head_];
    // Entries carry non-decreasing epochs (epoch_ is monotone), so the
    // first unexpired entry ends the drain.
    if (epoch_ < entry.epoch + retention_epochs_) break;
    ++retire_head_;
    const PidRec rec = pid_map_.at(entry.pid);
    release_row(rec.row);
    pid_map_.erase(entry.pid);
    scheduler_.forget_process(entry.pid);
  }
  if (retire_head_ == retire_queue_.size()) {
    retire_queue_.clear();
    retire_head_ = 0;
  } else if (retire_head_ >= kRetireCompactMin &&
             retire_head_ >= retire_queue_.size() / 2) {
    // Compact the consumed prefix in place (no allocation) so steady-state
    // churn keeps the queue's footprint at O(window), not O(total spawns).
    retire_queue_.erase(
        retire_queue_.begin(),
        retire_queue_.begin() + static_cast<std::ptrdiff_t>(retire_head_));
    retire_head_ = 0;
  }
}

void SimSystem::retire_dead_slots() {
  retire_pending_ = false;
  lifecycle_scratch_.clear();
  const std::size_t n = slot_pid_.size();
  if (fold_enabled_) {
    // Fold mode keeps the authoritative Welford state in the plane, so the
    // plane follows the same stable remap as every hot array (column i
    // always belongs to live_processes()[i]). Gather each retiring slot's
    // column back into accumulator form for the retirement snapshot below,
    // then compact with one unit-stride pass per row, starting at the
    // first retiring slot. Outside fold mode the plane is a derived cache
    // that step_slot rewrites for every live slot before any read, so its
    // columns need not move.
    std::size_t first = n;
    for (std::size_t s = 0; s < n; ++s) {
      if (exit_s_[s] == ExitReason::kRunning) continue;
      if (first == n) first = s;
      accum_s_[s].restore(fold_state(s));
    }
    for (std::size_t r = 0; r < plane_rows_used(); ++r) {
      double* row = plane_.data() + r * plane_stride_;
      std::size_t w = first;
      for (std::size_t s = first; s < n; ++s) {
        if (exit_s_[s] == ExitReason::kRunning) row[w++] = row[s];
      }
    }
  }
  std::size_t w = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const ProcessId pid = slot_pid_[s];
    if (exit_s_[s] == ExitReason::kRunning) {
      if (w != s) {
        slot_pid_[w] = pid;
        pid_map_.at(pid).slot = static_cast<std::uint32_t>(w);
        row_s_[w] = row_s_[s];
        rng_s_[w] = rng_s_[s];
        cgroup_s_[w] = cgroup_s_[s];
        effective_s_[w] = effective_s_[s];
        last_sample_s_[w] = last_sample_s_[s];
        accum_s_[w] = accum_s_[s];
        last_progress_s_[w] = last_progress_s_[s];
        epochs_run_s_[w] = epochs_run_s_[s];
        exit_s_[w] = exit_s_[s];
        invalid_streak_s_[w] = invalid_streak_s_[s];
        feature_streak_s_[w] = feature_streak_s_[s];
        if (plane_enabled_) {
          plane_count_[w] = plane_count_[s];
          plane_window_[w] = plane_window_[s];
          plane_window_wrap_[w] = plane_window_wrap_[s];
          if (fold_enabled_) {
            fold_mask_[w] = fold_mask_[s];
            fold_pending_[w] = fold_pending_[s];
          }
        }
      }
      ++w;
    } else {
      PidRec& rec = pid_map_.at(pid);
      ColdProc& cold = cold_[rec.row];
      RetiredState& retired = cold.retired;
      retired.cgroup = cgroup_s_[s];
      retired.effective = effective_s_[s];
      retired.last_sample = last_sample_s_[s];
      // In fold mode accum_s_[s] was gathered from the plane above, so the
      // pid-addressed observers answer from the same bits as ever.
      retired.accumulator = accum_s_[s];
      retired.last_progress = last_progress_s_[s];
      retired.epochs_run = epochs_run_s_[s];
      retired.exit = exit_s_[s];
      stamp(rec.row);
      rec.slot = kNoSlot;
      lifecycle_scratch_.push_back(pid);
      if (recycle_histories_) reclaim_cold(rec.row);
      // Retention: schedule the full reclaim for when the window closes.
      // epoch_ is monotone, so queue epochs are non-decreasing (FIFO drain
      // can stop at the first unexpired entry).
      if (retention_enabled_) retire_queue_.push_back({pid, epoch_});
    }
  }
  // One batch call takes the retired pids' weights out of the CFS pool —
  // a dead process must stop competing for CPU from the next epoch on.
  scheduler_.remove_processes(lifecycle_scratch_);
  lifecycle_scratch_.clear();
  // Shrinking never releases capacity, so later spawns reuse it.
  slot_pid_.resize(w);
  row_s_.resize(w);
  rng_s_.resize(w);
  cgroup_s_.resize(w);
  effective_s_.resize(w);
  last_sample_s_.resize(w);
  accum_s_.resize(w);
  last_progress_s_.resize(w);
  epochs_run_s_.resize(w);
  exit_s_.resize(w);
  invalid_streak_s_.resize(w);
  feature_streak_s_.resize(w);
  if (plane_enabled_) {
    plane_count_.resize(w);
    plane_window_.resize(w);
    plane_window_wrap_.resize(w);
    if (fold_enabled_) {
      fold_mask_.resize(w);
      fold_pending_.resize(w);
    }
  }
}

void SimSystem::set_cgroup_caps(ProcessId pid, std::optional<double> cpu,
                                std::optional<double> mem,
                                std::optional<double> net,
                                std::optional<double> fs) {
  const PidRec rec = rec_checked(pid);
  // Pending and retired pids keep their caps in the cold row's retired
  // snapshot, which captures then have to re-read.
  if (!is_hot_slot(rec.slot)) stamp(rec.row);
  ResourceShares& cg = is_hot_slot(rec.slot) ? cgroup_s_[rec.slot]
                                             : cold_[rec.row].retired.cgroup;
  const auto clamp01 = [](double v) { return std::clamp(v, 0.0, 1.0); };
  if (cpu) cg.cpu = clamp01(*cpu);
  if (mem) cg.mem = clamp01(*mem);
  if (net) cg.net = clamp01(*net);
  if (fs) cg.fs = clamp01(*fs);
}

void SimSystem::clear_cgroup_caps(ProcessId pid) {
  const PidRec rec = rec_checked(pid);
  if (!is_hot_slot(rec.slot)) stamp(rec.row);
  (is_hot_slot(rec.slot) ? cgroup_s_[rec.slot]
                         : cold_[rec.row].retired.cgroup) = ResourceShares{};
}

void SimSystem::apply_sched_threat_delta(ProcessId pid, double delta_threat) {
  (void)rec_checked(pid);  // validate pid
  scheduler_.apply_threat_delta(pid, delta_threat);
}

void SimSystem::reset_sched_weight(ProcessId pid) {
  (void)rec_checked(pid);  // validate pid
  scheduler_.reset_weight(pid);
}

void SimSystem::kill(ProcessId pid) {
  const PidRec rec = rec_checked(pid);
  const std::uint32_t slot = rec.slot;
  if (slot == kPendingSlot) {
    // Killed before its admission committed: cancel the admission. The
    // process never runs; it exits straight into the retired state, and
    // its spawn-registered scheduler weight parks like any retirement's.
    ColdProc& cold = cold_[rec.row];
    pid_map_.at(pid).slot = kNoSlot;
    cold.retired.exit = ExitReason::kKilled;
    stamp(rec.row);
    scheduler_.remove_process(pid);
    if (recycle_histories_) reclaim_cold(rec.row);
    // Cancelled admissions retire here, not in a compaction pass, so this
    // is their entry into the retention queue.
    if (retention_enabled_) retire_queue_.push_back({pid, epoch_});
    return;
  }
  if (slot == kNoSlot || exit_s_[slot] != ExitReason::kRunning) return;
  if (epoch_open_) {
    // The dispatch may be mid-flight over this slot: defer to the epoch
    // boundary so the process runs the open epoch in full and results
    // cannot depend on where in the epoch the kill landed.
    pending_kill_.push_back(pid);
    return;
  }
  // Mark now, compact later (next live_processes() or begin_epoch): every
  // pid-addressed observer already answers correctly for a marked slot,
  // and deferring keeps a mass-termination commit — k kills applied
  // back-to-back — at one O(live) compaction pass instead of k.
  exit_s_[slot] = ExitReason::kKilled;
  retire_pending_ = true;
}

bool SimSystem::is_live(ProcessId pid) const {
  const std::uint32_t slot = rec_checked(pid).slot;
  return is_hot_slot(slot) && exit_s_[slot] == ExitReason::kRunning;
}

ExitReason SimSystem::exit_reason(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  return is_hot_slot(rec.slot) ? exit_s_[rec.slot]
                               : cold_[rec.row].retired.exit;
}

const Workload& SimSystem::workload(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  if (cold_[rec.row].workload == nullptr) {
    throw std::logic_error("SimSystem::workload: reclaimed by retirement pool");
  }
  return *cold_[rec.row].workload;
}

Workload& SimSystem::workload(ProcessId pid) {
  const PidRec rec = rec_checked(pid);
  if (cold_[rec.row].workload == nullptr) {
    throw std::logic_error("SimSystem::workload: reclaimed by retirement pool");
  }
  // Mutable access to a retired workload is a write captures must see (a
  // live one is re-serialized at every capture anyway).
  if (!is_hot_slot(rec.slot)) stamp(rec.row);
  return *cold_[rec.row].workload;
}

const ResourceShares& SimSystem::effective_shares(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  return is_hot_slot(rec.slot) ? effective_s_[rec.slot]
                               : cold_[rec.row].retired.effective;
}

const ResourceShares& SimSystem::cgroup_caps(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  return is_hot_slot(rec.slot) ? cgroup_s_[rec.slot]
                               : cold_[rec.row].retired.cgroup;
}

const hpc::HpcSample& SimSystem::last_sample(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  return is_hot_slot(rec.slot) ? last_sample_s_[rec.slot]
                               : cold_[rec.row].retired.last_sample;
}

SimSystem::HistoryView SimSystem::sample_history(ProcessId pid) const {
  return ring_view(cold_[rec_checked(pid).row]);
}

ml::WindowSummary SimSystem::window_summary(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  const std::uint32_t slot = rec.slot;
  const HistoryView ring = ring_view(cold_[rec.row]);
  if (fold_enabled_ && is_hot_slot(slot)) {
    // Fold mode assembles BY VALUE straight off the plane rows: no shared
    // accumulator refresh, so parallel engine shards can query their own
    // (already-folded) slots concurrently.
    ml::WindowSummary out;
    out.count = plane_count_[slot];
    out.stale_mask = fold_mask_[slot];
    const double* col = plane_.data() + slot;
    for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
      out.newest[f] = col[f * plane_stride_];
    }
    if (out.count != 0) {
      for (std::size_t f = 0; f < hpc::kFeatureDim; ++f) {
        out.mean[f] = col[(hpc::kFeatureDim + f) * plane_stride_];
        out.stddev[f] = col[(2 * hpc::kFeatureDim + f) * plane_stride_];
      }
    }
    out.window = ring.older;
    out.window_wrap = ring.newer;
    return out;
  }
  ml::WindowSummary out = window_accumulator(pid).summary(ring.older);
  out.window_wrap = ring.newer;
  return out;
}

const ml::WindowAccumulator& SimSystem::window_accumulator(
    ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  const std::uint32_t slot = rec.slot;
  if (!is_hot_slot(slot)) return cold_[rec.row].retired.accumulator;
  if (fold_enabled_) {
    // The authoritative state lives in the plane rows; refresh the slot's
    // (otherwise stale) accumulator from them before handing it out.
    // Logically const, like live_processes()'s compaction — and serial-
    // phase only: parallel shards must use window_summary() instead.
    const_cast<SimSystem*>(this)->accum_s_[slot].restore(fold_state(slot));
  }
  return accum_s_[slot];
}

double SimSystem::last_progress(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  return is_hot_slot(rec.slot) ? last_progress_s_[rec.slot]
                               : cold_[rec.row].retired.last_progress;
}

std::uint64_t SimSystem::epochs_run(ProcessId pid) const {
  const PidRec rec = rec_checked(pid);
  return is_hot_slot(rec.slot) ? epochs_run_s_[rec.slot]
                               : cold_[rec.row].retired.epochs_run;
}

std::span<const ProcessId> SimSystem::live_processes() const {
  // The slot->pid array IS the live list: no separate rebuild, no
  // allocation, ever. Kills since the last epoch compact here first —
  // logically const (the live *set* is unchanged; only the internal slot
  // layout tightens), hence the cast.
  if (retire_pending_) const_cast<SimSystem*>(this)->retire_dead_slots();
  return slot_pid_;
}

snapshot::SystemImage SimSystem::snapshot_state() const {
  snapshot::SystemImage image;
  (void)capture_into(image);
  return image;
}

void SimSystem::capture_row(ProcessId pid, const PidRec& rec,
                            snapshot::ProcImage& proc) const {
  const ColdProc& cold = cold_[rec.row];
  proc.pid = pid;
  proc.slot = rec.slot;
  // A reclaimed workload or history frees the row's buffers too: a reused
  // image must not keep a retired row's old capacity alive.
  if (cold.workload != nullptr) {
    snapshot::poly_image_into(*cold.workload, proc.workload);
  } else {
    proc.workload = {};
  }
  if (cold.history.empty()) {
    std::vector<hpc::HpcSample>().swap(proc.history);
  } else {
    // Linearize the ring oldest-first, so the image is layout-independent
    // and a restored ring restarts with head 0 at its oldest sample.
    const HistoryView ring = ring_view(cold);
    proc.history.assign(ring.older.begin(), ring.older.end());
    proc.history.insert(proc.history.end(), ring.newer.begin(),
                        ring.newer.end());
  }
  proc.retired_cgroup = cold.retired.cgroup;
  proc.retired_effective = cold.retired.effective;
  proc.retired_last_sample = cold.retired.last_sample;
  proc.retired_accum = cold.retired.accumulator.state();
  proc.retired_last_progress = cold.retired.last_progress;
  proc.retired_epochs_run = cold.retired.epochs_run;
  proc.retired_exit = static_cast<std::uint8_t>(cold.retired.exit);
}

snapshot::CaptureStats SimSystem::capture_into(
    snapshot::SystemImage& image) const {
  if (epoch_open_) {
    throw std::logic_error("SimSystem::snapshot_state: epoch in progress");
  }
  // Closed-boundary invariant: the lifecycle queues drain at every
  // end_epoch/abort_epoch, so nothing can be pending here.
  if (!pending_admit_.empty() || !pending_kill_.empty()) {
    throw std::logic_error(
        "SimSystem::snapshot_state: lifecycle queues not drained");
  }

  // Read the provenance, then clear it: until this capture completes the
  // image is half old and half new, and a throw (an unsupported workload)
  // must leave it untrusted.
  const bool trusted = image.source_instance == instance_;
  const std::uint64_t since = image.source_serial;
  const auto seen_pids = static_cast<std::size_t>(image.total_spawned);
  image.source_instance = 0;

  image.epoch_ms = platform_.epoch_ms;
  image.hpc_noise = platform_.hpc_noise;
  image.scheduler = scheduler_.config();
  image.rng = rng_.state();
  image.epoch = epoch_;
  image.retire_pending = retire_pending_;
  image.recycle_histories = recycle_histories_;
  image.counter_rng = counter_rng_;
  image.total_spawned = next_pid_;
  image.retention_enabled = retention_enabled_;
  image.retention_epochs = retention_epochs_;
  image.retire_queue.clear();
  for (std::size_t i = retire_head_; i < retire_queue_.size(); ++i) {
    image.retire_queue.emplace_back(retire_queue_[i].pid,
                                    retire_queue_[i].epoch);
  }

  image.slots.resize(slot_pid_.size());
  for (std::size_t s = 0; s < slot_pid_.size(); ++s) {
    snapshot::SlotImage& slot = image.slots[s];
    slot.pid = slot_pid_[s];
    slot.rng = rng_s_[s].state();
    slot.cgroup = cgroup_s_[s];
    slot.effective = effective_s_[s];
    slot.last_sample = last_sample_s_[s];
    // Fold mode: gather the authoritative plane rows back into
    // accumulator form (bit-exact round trip), so the image format is
    // identical either way.
    slot.accum = fold_enabled_ ? fold_state(s) : accum_s_[s].state();
    slot.last_progress = last_progress_s_[s];
    slot.epochs_run = epochs_run_s_[s];
    slot.exit = static_cast<std::uint8_t>(exit_s_[s]);
    slot.invalid_streak = invalid_streak_s_[s];
    slot.feature_streak = feature_streak_s_[s];
  }

  // Cold rows, ascending pid. Rows at index >= `out` are spent: their
  // buffers are reused by rows serialized from scratch. `pids` collects
  // the output order for the scheduler gather below.
  snapshot::CaptureStats stats;
  std::vector<snapshot::ProcImage>& rows = image.procs;
  std::vector<ProcessId> pids;
  pids.reserve(pid_map_.size());
  std::size_t out = 0;
  const auto rebuild = [&](ProcessId pid, const PidRec& rec) {
    if (out == rows.size()) rows.emplace_back();
    capture_row(pid, rec, rows[out++]);
    pids.push_back(pid);
    ++stats.rows_rebuilt;
  };
  if (trusted) {
    // The image's rows are ascending-pid already, and every pid it lacks
    // was spawned after it (pids are never reused): walk its rows, drop
    // the reclaimed ones, then append the pids spawned since. Most rows
    // are retired and untouched, so the walk reads only each row's pid and
    // slot (prefetched ahead: the image is long out of cache) and the
    // dense write stamps.
    constexpr std::size_t kLookahead = 8;
    const std::size_t spare = rows.size();
    for (std::size_t j = 0; j < spare; ++j) {
      if (j + kLookahead < spare) __builtin_prefetch(&rows[j + kLookahead]);
      const PidRec* found = pid_map_.find(rows[j].pid);
      if (found == nullptr) continue;  // reclaimed since
      const PidRec rec = *found;
      if (out != j) rows[out] = std::move(rows[j]);
      snapshot::ProcImage& proc = rows[out++];
      pids.push_back(proc.pid);
      // Every write to a cold row other than step_slot's sample append
      // stamps it, so an unstamped row differs from its image only by
      // what a live process did since: run (workload state) and append.
      const bool unwritten = row_written_[rec.row] <= since;
      const bool was_live = is_hot_slot(proc.slot);
      const bool live = is_hot_slot(rec.slot);
      if (unwritten && !was_live && !live) {
        ++stats.rows_reused;  // retired then, untouched since
        continue;
      }
      const ColdProc& cold = cold_[rec.row];
      // A full ring overwrites its oldest samples in place.
      const bool appended_only =
          cold.history.size() < ml::kHistoryWindow &&
          proc.history.size() <= cold.history.size();
      if (unwritten && was_live && live && appended_only) {
        proc.slot = rec.slot;
        snapshot::poly_image_into(*cold.workload, proc.workload);
        proc.history.insert(
            proc.history.end(),
            cold.history.begin() +
                static_cast<std::ptrdiff_t>(proc.history.size()),
            cold.history.end());
        ++stats.rows_reused;
      } else {
        capture_row(proc.pid, rec, proc);
        ++stats.rows_rebuilt;
      }
    }
    // Room for the pids spawned since, plus as many again: a spare lives
    // through many refreshes, and push_back's doubling would leave up to
    // half of its rows as slack.
    const std::size_t spawned = next_pid_ - seen_pids;
    if (rows.capacity() < out + spawned) rows.reserve(out + 2 * spawned);
    for (std::size_t pid = seen_pids; pid < next_pid_; ++pid) {
      const auto p = static_cast<ProcessId>(pid);
      if (const PidRec* rec = pid_map_.find(p)) rebuild(p, *rec);
    }
  } else {
    // Canonicalize the pid map's bucket order (which depends on its
    // capacity history, which a restore does not reproduce) to ascending
    // pid: capture bytes must not depend on it.
    std::vector<std::pair<ProcessId, PidRec>> tracked;
    tracked.reserve(pid_map_.size());
    pid_map_.for_each([&](ProcessId pid, const PidRec& rec) {
      tracked.emplace_back(pid, rec);
    });
    std::sort(tracked.begin(), tracked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    rows.reserve(tracked.size());
    for (const auto& [pid, rec] : tracked) rebuild(pid, rec);
  }
  rows.resize(out);

  // The scheduler's factor table keys exactly the tracked pids (weights
  // and cold rows are created and reclaimed together), so its canonical
  // ascending-pid form is one batched gather in row order.
  std::vector<double> factors(pids.size());
  scheduler_.gather_factors(pids, factors);
  image.sched_entries.resize(pids.size());
  for (std::size_t i = 0; i < pids.size(); ++i) {
    image.sched_entries[i] = {pids[i], factors[i]};
  }

  image.source_serial = write_serial_;
  image.source_instance = instance_;
  return stats;
}

void SimSystem::restore_from(const snapshot::SystemImage& image,
                             const snapshot::WorkloadRegistry& registry) {
  using util::SerialError;
  if (epoch_open_) {
    throw std::logic_error("SimSystem::restore_from: epoch in progress");
  }

  // Compatibility: the platform/scheduler configuration is code-level (set
  // at construction); the image only records its numbers for this check.
  const SchedulerConfig& sc = scheduler_.config();
  const SchedulerConfig& ic = image.scheduler;
  if (platform_.epoch_ms != image.epoch_ms ||
      platform_.hpc_noise != image.hpc_noise ||
      sc.targeted_latency_ms != ic.targeted_latency_ms ||
      sc.gamma != ic.gamma || sc.weight_levels != ic.weight_levels ||
      sc.default_level != ic.default_level ||
      sc.background_weight_units != ic.background_weight_units ||
      sc.min_share_fraction != ic.min_share_fraction) {
    throw SerialError(SerialError::Code::kIncompatible,
                      "restore: platform/scheduler configuration mismatch");
  }

  // Structural validation — everything throws before any mutation. The v5
  // keyed form: cold rows and scheduler entries are sparse, ascending-pid,
  // and must key exactly the same pid set.
  const std::size_t procs = image.procs.size();
  ProcessId prev_row_pid = 0;
  for (std::size_t i = 0; i < procs; ++i) {
    const snapshot::ProcImage& proc = image.procs[i];
    if (proc.pid >= image.total_spawned ||
        (i != 0 && proc.pid <= prev_row_pid)) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: cold rows not ascending-pid / pid beyond "
                        "total_spawned");
    }
    prev_row_pid = proc.pid;
  }
  if (image.sched_entries.size() != procs) {
    throw SerialError(SerialError::Code::kMalformed,
                      "restore: scheduler entries do not match cold rows");
  }
  for (std::size_t i = 0; i < procs; ++i) {
    const sim::SchedFactorEntry& entry = image.sched_entries[i];
    // Weights and rows are created/reclaimed together, so the keyed sets
    // are element-wise equal; the sign must match liveness (hot slots —
    // compacted or not — are runnable, retired rows are parked).
    const bool hot = is_hot_slot(image.procs[i].slot);
    if (entry.pid != image.procs[i].pid || entry.factor == 0.0 ||
        (entry.factor > 0.0) != hot) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: scheduler entry inconsistent with its row");
    }
  }
  for (const snapshot::ProcImage& proc : image.procs) {
    if (proc.history.size() > ml::kHistoryWindow) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: history longer than the ring");
    }
  }
  // Rows are ascending-pid (just checked), so pid -> row index resolves by
  // binary search; -1 = untracked.
  const auto proc_index = [&image](ProcessId pid) -> std::ptrdiff_t {
    const auto it = std::lower_bound(
        image.procs.begin(), image.procs.end(), pid,
        [](const snapshot::ProcImage& p, ProcessId v) { return p.pid < v; });
    if (it == image.procs.end() || it->pid != pid) return -1;
    return it - image.procs.begin();
  };
  ProcessId prev_pid = 0;
  for (std::size_t s = 0; s < image.slots.size(); ++s) {
    const snapshot::SlotImage& slot = image.slots[s];
    const std::ptrdiff_t row = proc_index(slot.pid);
    if (row < 0 || (s != 0 && slot.pid <= prev_pid) ||
        image.procs[static_cast<std::size_t>(row)].slot != s ||
        slot.exit > 2) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: hot slot table inconsistent");
    }
    prev_pid = slot.pid;
  }
  for (std::size_t i = 0; i < procs; ++i) {
    const snapshot::ProcImage& proc = image.procs[i];
    const bool hot = is_hot_slot(proc.slot);
    if ((proc.slot != kNoSlot && !hot) ||
        (hot && (proc.slot >= image.slots.size() ||
                 image.slots[proc.slot].pid != proc.pid)) ||
        proc.retired_exit > 2) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: pid -> slot table inconsistent");
    }
    if (hot && !proc.workload.present()) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: live slot without a workload");
    }
  }
  // Retention state: queue entries must reference tracked, retired rows,
  // with non-decreasing epochs no later than the capture epoch, no pid
  // twice (a reclaim is one-shot), and no queue at all without the policy.
  if (!image.retention_enabled &&
      (!image.retire_queue.empty() || image.retention_epochs != 0)) {
    throw SerialError(SerialError::Code::kMalformed,
                      "restore: retirement queue without retention policy");
  }
  if (image.retention_enabled && image.retention_epochs == 0) {
    throw SerialError(SerialError::Code::kMalformed,
                      "restore: zero retention window");
  }
  std::uint64_t prev_epoch = 0;
  for (std::size_t i = 0; i < image.retire_queue.size(); ++i) {
    const auto& [pid, retired_at] = image.retire_queue[i];
    const std::ptrdiff_t row = proc_index(pid);
    if (row < 0 ||
        is_hot_slot(image.procs[static_cast<std::size_t>(row)].slot) ||
        (i != 0 && retired_at < prev_epoch) || retired_at > image.epoch) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: retirement queue inconsistent");
    }
    prev_epoch = retired_at;
  }
  {
    std::vector<ProcessId> queue_pids;
    queue_pids.reserve(image.retire_queue.size());
    for (const auto& [pid, retired_at] : image.retire_queue) {
      queue_pids.push_back(pid);
    }
    std::sort(queue_pids.begin(), queue_pids.end());
    if (std::adjacent_find(queue_pids.begin(), queue_pids.end()) !=
        queue_pids.end()) {
      throw SerialError(SerialError::Code::kMalformed,
                        "restore: pid queued for reclamation twice");
    }
  }

  // Stage the workloads: loader failures (unknown type, malformed payload)
  // must leave the target untouched.
  std::vector<std::unique_ptr<Workload>> staged(procs);
  for (std::size_t pid = 0; pid < procs; ++pid) {
    if (image.procs[pid].workload.present()) {
      staged[pid] = registry.load(image.procs[pid].workload);
    }
  }

  // Commit. A new lineage: no image captured before this point may be
  // refreshed against the rebuilt rows.
  instance_ = next_instance_id();
  rng_.set_state(image.rng);
  // The RNG kind is run state the image carries (set_state only restores
  // the counters/words): adopt it both ways, so restoring a xoshiro image
  // into a counter-mode system — or vice versa — replays faithfully.
  counter_rng_ = image.counter_rng;
  rng_.set_counter_mode(counter_rng_);
  epoch_ = image.epoch;
  retire_pending_ = image.retire_pending;
  recycle_histories_ = image.recycle_histories;
  epoch_any_exited_.store(false, std::memory_order_relaxed);
  pending_admit_.clear();
  pending_kill_.clear();
  history_pool_.clear();
  next_pid_ = static_cast<std::size_t>(image.total_spawned);
  retention_enabled_ = image.retention_enabled;
  retention_epochs_ = image.retention_epochs;
  retire_queue_.clear();
  retire_head_ = 0;
  for (const auto& [pid, retired_at] : image.retire_queue) {
    retire_queue_.push_back({pid, retired_at});
  }

  // Cold rows pack densely in image (ascending-pid) order; the pid map is
  // rebuilt from scratch, so its capacity — and therefore its bucket
  // layout — is a pure function of the tracked count, never of the churn
  // history that produced the image. No observable output iterates the
  // map, so the layout difference is invisible.
  cold_.clear();
  cold_.resize(procs);
  row_written_.assign(procs, 0);
  free_rows_.clear();
  pid_map_.clear();
  pid_map_.reserve(procs);
  for (std::size_t i = 0; i < procs; ++i) {
    const snapshot::ProcImage& proc = image.procs[i];
    ColdProc& cold = cold_[i];
    cold.workload = std::move(staged[i]);
    cold.history = proc.history;
    // Image histories are linearized oldest-first, so a full ring resumes
    // with head 0 = its oldest sample (exactly where the overwrite goes).
    cold.head = 0;
    cold.retired.cgroup = proc.retired_cgroup;
    cold.retired.effective = proc.retired_effective;
    cold.retired.last_sample = proc.retired_last_sample;
    cold.retired.accumulator.restore(proc.retired_accum);
    cold.retired.last_progress = proc.retired_last_progress;
    cold.retired.epochs_run = proc.retired_epochs_run;
    cold.retired.exit = static_cast<ExitReason>(proc.retired_exit);
    stamp(static_cast<std::uint32_t>(i));
    pid_map_.insert(proc.pid,
                    PidRec{proc.slot, static_cast<std::uint32_t>(i)});
  }

  const std::size_t live = image.slots.size();
  slot_pid_.resize(live);
  row_s_.resize(live);
  factor_s_.assign(live, 0.0);
  rng_s_.resize(live);
  cgroup_s_.resize(live);
  effective_s_.resize(live);
  last_sample_s_.resize(live);
  accum_s_.resize(live);
  last_progress_s_.resize(live);
  epochs_run_s_.resize(live);
  exit_s_.resize(live);
  invalid_streak_s_.resize(live);
  feature_streak_s_.resize(live);
  for (std::size_t s = 0; s < live; ++s) {
    const snapshot::SlotImage& slot = image.slots[s];
    slot_pid_[s] = slot.pid;
    row_s_[s] = pid_map_.at(slot.pid).row;
    rng_s_[s].set_state(slot.rng);
    rng_s_[s].set_counter_mode(counter_rng_);
    cgroup_s_[s] = slot.cgroup;
    effective_s_[s] = slot.effective;
    last_sample_s_[s] = slot.last_sample;
    accum_s_[s].restore(slot.accum);
    last_progress_s_[s] = slot.last_progress;
    epochs_run_s_[s] = slot.epochs_run;
    exit_s_[s] = static_cast<ExitReason>(slot.exit);
    invalid_streak_s_[s] = slot.invalid_streak;
    feature_streak_s_[s] = slot.feature_streak;
  }

  scheduler_.restore_factor_entries(image.sched_entries);

  // The feature-plane arming flags are run config, not snapshot state
  // (the image carries none): the target keeps whatever sections its own
  // engine armed at construction. Without fold mode the plane CONTENTS are
  // derived — step_slot rewrites every live column before the next batch
  // kernel reads it, so size (not bits) is all restore must provide. Fold
  // mode instead re-seeds the authoritative Welford rows from the restored
  // accumulators (the exact bits the image's capture gathered out).
  if (plane_enabled_) {
    plane_count_.assign(live, 0);
    plane_window_.assign(live, {});
    plane_window_wrap_.assign(live, {});
    reserve_plane();
    if (fold_enabled_) {
      fold_mask_.assign(live, 0);
      fold_pending_.assign(live, 0);
      plane_.assign(plane_rows_used() * plane_stride_, 0.0);
      scatter_accums_to_plane();
    }
  }
}

}  // namespace valkyrie::sim
