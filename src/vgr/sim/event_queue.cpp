#include "vgr/sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace vgr::sim {

EventQueue::~EventQueue() {
  // A non-empty queue at teardown still owns callables (live or retired-
  // but-uncollected); destroy them so captured resources are released.
  for (std::uint32_t i = 0; i < slot_high_water_; ++i) {
    Slot& s = slot_at(i);
    if (s.owner != 0) s.destroy(s.storage);
  }
}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    return idx;
  }
  const std::uint32_t idx = slot_high_water_++;
  if ((idx & (kChunkSlots - 1U)) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return idx;
}

CohortId EventQueue::make_cohort() {
  const auto idx = static_cast<std::uint32_t>(cohorts_.size());
  cohorts_.push_back(Cohort{});
  return CohortId{idx};
}

std::size_t EventQueue::cancel_cohort(CohortId cohort) {
  assert(cohort.value != 0 && "the default cohort cannot be retired");
  if (cohort.value == 0 || cohort.value >= cohorts_.size()) return 0;
  Cohort& c = cohort_ref(cohort.value);
  const std::size_t retired = c.pending;
  live_count_ -= retired;
  c.pending = 0;
  ++c.gen;
  return retired;
}

bool EventQueue::cancel(EventId id) {
  if (id.value == 0 || id.slot >= slot_high_water_) return false;
  Slot& s = slot_at(id.slot);
  if (s.owner != id.value) return false;  // already fired or cancelled
  const bool was_live = s.gen == cohort_ref(s.cohort).gen;
  if (was_live) {
    --live_count_;
    --cohort_ref(s.cohort).pending;
  }
  // Either way the slot's callable is done for; collect it eagerly (the
  // heap record is dropped lazily when it surfaces).
  s.destroy(s.storage);
  s.owner = 0;
  free_slots_.push_back(id.slot);
  return was_live;
}

bool EventQueue::pending(EventId id) const {
  if (id.value == 0 || id.slot >= slot_high_water_) return false;
  const Slot& s = slot_at(id.slot);
  return s.owner == id.value && s.gen == cohort_ref(s.cohort).gen;
}

bool EventQueue::rec_dead(const Rec& r) const {
  const Slot& s = slot_at(r.slot);
  if (s.owner != r.id) return true;  // fired, cancelled, or slot reused
  return s.gen != cohort_ref(s.cohort).gen;
}

void EventQueue::collect_dead(const Rec& r) {
  Slot& s = slot_at(r.slot);
  if (s.owner == r.id) {
    // Cohort-retired: the callable is still in place.
    s.destroy(s.storage);
    s.owner = 0;
    free_slots_.push_back(r.slot);
  }
}

const EventQueue::Rec* EventQueue::top_live() {
  while (!heap_.empty() && rec_dead(heap_.front())) {
    collect_dead(heap_.front());
    std::pop_heap(heap_.begin(), heap_.end(), RecAfter{});
    heap_.pop_back();
  }
  return heap_.empty() ? nullptr : &heap_.front();
}

void EventQueue::fire_top() {
  const Rec r = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), RecAfter{});
  heap_.pop_back();
  Slot& s = slot_at(r.slot);
  assert(r.when >= now_);
  now_ = r.when;
  // Mark fired before invoking: a callback cancelling or re-querying its
  // own id must see "already fired", and the slot is only recycled after
  // the callable has been destroyed, so reentrant schedules cannot clobber
  // the running closure even though they may acquire fresh slots.
  s.owner = 0;
  --live_count_;
  --cohort_ref(s.cohort).pending;
  ++fired_;
  s.invoke(s.storage);
  s.destroy(s.storage);
  free_slots_.push_back(r.slot);
}

bool EventQueue::step() {
  if (top_live() == nullptr) return false;
  fire_top();
  return true;
}

void EventQueue::run_until(TimePoint until) {
  const bool budgeted = budget_events_end_ != 0 || has_wall_deadline_;
  for (;;) {
    // top_live() surfaces only live events, so a cancelled event sitting
    // at the boundary cannot admit a later one past `until`.
    const Rec* top = top_live();
    if (top == nullptr || top->when > until) break;
    if (budgeted) {
      const BudgetTrip trip = budget_tripped();
      if (trip != BudgetTrip::kNone) {
        budget_exceeded_ = true;
        budget_trip_ = trip;
        break;
      }
    }
    fire_top();
  }
  if (now_ < until) now_ = until;
}

void EventQueue::set_run_budget(std::uint64_t max_events, double wall_seconds) {
  budget_exceeded_ = false;
  budget_trip_ = BudgetTrip::kNone;
  budget_events_end_ = max_events == 0 ? 0 : fired_ + max_events;
  has_wall_deadline_ = wall_seconds > 0.0;
  if (has_wall_deadline_) {
    wall_deadline_ = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(wall_seconds));
  }
}

BudgetTrip EventQueue::budget_tripped() {
  if (budget_events_end_ != 0 && fired_ >= budget_events_end_) return BudgetTrip::kEvents;
  // The wall clock is only consulted every 4096 events: a syscall per event
  // would dominate the hot loop, and watchdog precision of a few
  // milliseconds is ample for budgets measured in seconds.
  if (has_wall_deadline_ && (fired_ & 0xFFFU) == 0 &&
      std::chrono::steady_clock::now() >= wall_deadline_) {
    return BudgetTrip::kWall;
  }
  return BudgetTrip::kNone;
}

}  // namespace vgr::sim
