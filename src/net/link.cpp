#include "net/link.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sperke::net {
namespace {

constexpr double kMssBytes = 1460.0;
constexpr double kMathisConstant = 1.22;
// A transfer is complete when less than half a byte remains (absorbs
// floating-point drift in the fluid model).
constexpr double kCompleteEpsilonBytes = 0.5;
// The largest effective RTT (seconds) that spikes may produce: half the
// microsecond clock's range, so that now + rtt() still fits for any instant
// in the other half (about 146 000 years).
constexpr double kMaxSpikedRttS = 4.6e12;

// The largest product of RTT spike factors in force at one instant. Every
// factor is >= 1, and every window open at an instant t is also open at the
// latest start among them, so the maximum is taken at some window's start.
double max_spike_factor(const std::vector<FaultWindow>& spikes) {
  double worst = 1.0;
  for (const FaultWindow& at : spikes) {
    double factor = 1.0;
    for (const FaultWindow& w : spikes) {
      if (w.contains_s(at.start_s)) factor *= w.factor;
    }
    worst = std::max(worst, factor);
  }
  return worst;
}

}  // namespace

void validate(const LinkConfig& config) {
  if (config.rtt < sim::Duration{0}) throw std::invalid_argument("Link: negative RTT");
  // Written so that NaN fails: it would make the Mathis cap NaN.
  if (!(config.loss_rate >= 0.0 && config.loss_rate < 1.0)) {
    throw std::invalid_argument("Link: loss_rate must be in [0,1)");
  }
  validate(config.faults);
  const double max_rtt_s = sim::to_seconds(config.rtt) *
                           max_spike_factor(config.faults.rtt_spikes);
  if (!(max_rtt_s <= kMaxSpikedRttS)) {
    throw std::invalid_argument(
        "Link: RTT spikes push the RTT past the clock range");
  }
}

Link::Link(sim::Simulator& simulator, LinkConfig config)
    : simulator_(simulator),
      config_(std::move(config)),
      fault_rng_(config_.faults.seed) {
  validate(config_);
  last_update_ = simulator_.now();
  // Execute the schedule as simulation events. Outage starts fail the
  // in-flight set; every other boundary just settles progress and
  // recomputes rates under the new capacity/RTT factors. An empty plan
  // schedules nothing.
  for (const FaultWindow& w : config_.faults.outages) {
    simulator_.schedule_at(sim::seconds(w.start_s), [this, alive = alive_] {
      if (*alive) on_outage_begin();
    });
    simulator_.schedule_at(sim::seconds(w.end_s()), [this, alive = alive_] {
      if (*alive) on_fault_boundary();
    });
  }
  const auto boundary_events = [this](const std::vector<FaultWindow>& windows) {
    for (const FaultWindow& w : windows) {
      for (const double edge_s : {w.start_s, w.end_s()}) {
        simulator_.schedule_at(sim::seconds(edge_s), [this, alive = alive_] {
          if (*alive) on_fault_boundary();
        });
      }
    }
  };
  boundary_events(config_.faults.capacity_collapses);
  boundary_events(config_.faults.rtt_spikes);
}

Link::~Link() { *alive_ = false; }

bool Link::in_outage_at(sim::Time t) const {
  const double t_s = sim::to_seconds(t);
  for (const FaultWindow& w : config_.faults.outages) {
    if (w.contains_s(t_s)) return true;
  }
  return false;
}

bool Link::in_outage() const { return in_outage_at(simulator_.now()); }

double Link::outage_seconds() const {
  const double now_s = sim::to_seconds(simulator_.now());
  double total = 0.0;
  for (const FaultWindow& w : config_.faults.outages) {
    total += std::max(0.0, std::min(now_s, w.end_s()) - w.start_s);
  }
  return total;
}

double Link::fault_capacity_factor_at(sim::Time t) const {
  if (in_outage_at(t)) return 0.0;
  double factor = 1.0;
  const double t_s = sim::to_seconds(t);
  for (const FaultWindow& w : config_.faults.capacity_collapses) {
    if (w.contains_s(t_s)) factor *= w.factor;
  }
  return factor;
}

double Link::capacity_kbps_now() const {
  // Without fault windows the factor is exactly 1.0: the trace's rate
  // comes back bit for bit.
  return config_.bandwidth.kbps_at(simulator_.now()) *
         fault_capacity_factor_at(simulator_.now());
}

sim::Duration Link::rtt() const {
  double factor = 1.0;
  const double now_s = sim::to_seconds(simulator_.now());
  for (const FaultWindow& w : config_.faults.rtt_spikes) {
    if (w.contains_s(now_s)) factor *= w.factor;
  }
  if (factor == 1.0) return config_.rtt;
  return sim::seconds(sim::to_seconds(config_.rtt) * factor);
}

double Link::mathis_cap_kbps() const {
  if (config_.loss_rate <= 0.0) return std::numeric_limits<double>::infinity();
  const double rtt_s = std::max(sim::to_seconds(rtt()), 1e-4);
  const double bps =
      kMathisConstant * kMssBytes * 8.0 / (rtt_s * std::sqrt(config_.loss_rate));
  return bps / 1000.0;
}

std::size_t Link::slot_of(FetchId id) const {
  if (id == 0) return slots_.size();  // 0 marks a free slot, never a fetch
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].id == id) return slot;
  }
  return slots_.size();
}

std::uint32_t Link::take_slot() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

Link::Completion Link::settle(std::uint32_t slot, TransferResult result) {
  Transfer& t = slots_[slot];
  Completion completion{t.id, slot, std::move(t.on_complete), result};
  t.id = 0;
  free_slots_.push_back(slot);
  return completion;
}

double Link::transfer_rate_kbps(FetchId id) const {
  // A transfer in warmup has rate 0 until it activates.
  const std::size_t slot = slot_of(id);
  return slot < slots_.size() ? slots_[slot].rate_bps / 1000.0 : 0.0;
}

FetchId Link::fetch(const FetchSpec& spec, TransferCallback on_done) {
  const std::int64_t bytes = spec.bytes;
  if (bytes <= 0) throw std::invalid_argument("Link: transfer of non-positive size");
  if (spec.weight <= 0.0) {
    throw std::invalid_argument("Link: non-positive weight");
  }
  const FetchId id = next_id_++;
  const std::uint32_t slot = take_slot();
  Transfer& t = slots_[slot];
  t = Transfer{};
  t.id = id;
  t.remaining_bytes = static_cast<double>(bytes);
  t.total_bytes = bytes;
  t.weight = spec.weight;
  t.on_complete = std::move(on_done);
  if (config_.faults.transfer_failure_prob > 0.0 &&
      fault_rng_.bernoulli(config_.faults.transfer_failure_prob)) {
    // Seeded mid-flight failure: the connection dies after a uniform
    // fraction of the payload has flowed. Drawn in transfer-start order,
    // so the failure pattern is a pure function of (plan seed, workload).
    const double delivered_fraction = fault_rng_.uniform(0.05, 0.95);
    t.fail_at_remaining_bytes =
        static_cast<double>(bytes) * (1.0 - delivered_fraction);
  }
  // First byte flows one RTT after the request is issued. A transfer that
  // settles in warmup frees its slot, and a later fetch may take it: the
  // id tells the two apart.
  simulator_.schedule_after(rtt(), [this, id, slot, alive = alive_] {
    if (*alive) on_activate(id, slot);
  });
  return id;
}

void Link::on_activate(FetchId id, std::uint32_t slot) {
  if (slots_[slot].id != id) return;  // cancelled/failed during warmup
  if (in_outage()) {
    // The request hit a dead link: the handshake times out after the RTT
    // instead of ever activating.
    fire_one(settle(slot, {TransferStatus::kFailed, simulator_.now(), 0}));
    return;
  }
  advance();
  // An RTT spike can activate a later id before an earlier one, so the
  // slot goes to its id position, not to the back.
  const auto at = std::lower_bound(
      active_.begin(), active_.end(), id,
      [this](std::uint32_t s, FetchId value) { return slots_[s].id < value; });
  // Activating twice would count the transfer twice in every
  // water-filling weight sum.
  SPERKE_CHECK(at == active_.end() || slots_[*at].id != id,
               "Link: transfer activated twice");
  active_.insert(at, slot);
  reflow();
}

bool Link::cancel(FetchId id) {
  const std::size_t slot = slot_of(id);
  if (slot == slots_.size()) return false;  // finished/failed: never re-fires
  advance();
  const auto active = std::find(active_.begin(), active_.end(), slot);
  if (active != active_.end()) active_.erase(active);
  // A warmup cancel reflows too: the re-armed wake-up takes a new event
  // sequence number, which later same-time ties depend on.
  Completion cancelled = settle(static_cast<std::uint32_t>(slot),
                                {TransferStatus::kCancelled, simulator_.now(),
                                 slots_[slot].counted_bytes});
  reflow();
  fire_one(std::move(cancelled));
  return true;
}

void Link::on_outage_begin() {
  advance();
  // Every transfer — active or still in RTT warmup — fails at the outage
  // edge, in ascending id order; partial progress stays counted in
  // bytes_delivered().
  std::vector<std::uint32_t> live;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].id != 0) live.push_back(slot);
  }
  std::sort(live.begin(), live.end(), [this](std::uint32_t a, std::uint32_t b) {
    return slots_[a].id < slots_[b].id;
  });
  std::vector<Completion> completions = std::move(completed_scratch_);
  completions.clear();
  const sim::Time now = simulator_.now();
  for (const std::uint32_t slot : live) {
    completions.push_back(settle(
        slot, {TransferStatus::kFailed, now, slots_[slot].counted_bytes}));
  }
  active_.clear();
  reflow();
  fire_completions(std::move(completions));
}

void Link::on_fault_boundary() {
  advance();
  reflow();
}

void Link::advance() {
  const sim::Time now = simulator_.now();
  const double dt = sim::to_seconds(now - last_update_);
  // last_update_ only ever moves forward with the simulator clock; a
  // negative dt means time ran backwards and every fluid integral is wrong.
  SPERKE_DCHECK(dt >= 0.0, "Link: advance with negative dt=", dt);
  if (dt > 0.0) {
    for (const std::uint32_t slot : active_) {
      Transfer& t = slots_[slot];
      if (t.rate_bps <= 0.0) continue;
      const double delivered = std::min(t.remaining_bytes, t.rate_bps / 8.0 * dt);
      t.remaining_bytes -= delivered;
      const auto inc = static_cast<std::int64_t>(std::llround(delivered));
      t.counted_bytes += inc;
      bytes_delivered_ += inc;
      // Byte conservation per transfer: the fluid model can neither deliver
      // more than the object holds nor drive the residue negative.
      SPERKE_DCHECK(t.remaining_bytes >= 0.0 &&
                        t.remaining_bytes <= static_cast<double>(t.total_bytes),
                    "Link: remaining_bytes out of [0, total] for transfer ", t.id);
    }
  }
  last_update_ = now;
}

void Link::reflow() {
  recompute_rates();
  arm_wakeup();
}

void Link::recompute_rates() {
  // Weighted water-filling: capacity splits proportionally to transfer
  // weights, each transfer individually Mathis-capped; capacity a capped
  // transfer cannot use redistributes among the rest.
  const double capacity_bps = capacity_kbps_now() * 1000.0;
  rates_capacity_bps_ = capacity_bps;
  const double cap_bps = mathis_cap_kbps() * 1000.0;
  auto& unallocated = waterfill_scratch_;
  unallocated.clear();
  for (const std::uint32_t slot : active_) {
    slots_[slot].rate_bps = 0.0;
    unallocated.push_back(slot);
  }
  double remaining_capacity = capacity_bps;
  bool someone_capped = true;
  while (!unallocated.empty() && someone_capped && remaining_capacity > 0.0) {
    someone_capped = false;
    double total_weight = 0.0;
    for (const std::uint32_t slot : unallocated) {
      total_weight += slots_[slot].weight;
    }
    for (auto it = unallocated.begin(); it != unallocated.end();) {
      Transfer& t = slots_[*it];
      const double share = remaining_capacity * t.weight / total_weight;
      if (share >= cap_bps) {
        t.rate_bps = cap_bps;
        remaining_capacity -= cap_bps;
        it = unallocated.erase(it);
        someone_capped = true;
      } else {
        ++it;
      }
    }
  }
  if (!unallocated.empty() && remaining_capacity > 0.0) {
    double total_weight = 0.0;
    for (const std::uint32_t slot : unallocated) {
      total_weight += slots_[slot].weight;
    }
    for (const std::uint32_t slot : unallocated) {
      Transfer& t = slots_[slot];
      t.rate_bps = remaining_capacity * t.weight / total_weight;
    }
  }
  if constexpr (SPERKE_DCHECK_IS_ON) {
    // Rate conservation: the water-filling never allocates more than the
    // link's capacity (1e-9 relative slack for the divisions above), and
    // no transfer exceeds its Mathis ceiling. The active index is in
    // strictly ascending id order, the order every sum above relies on.
    double allocated_bps = 0.0;
    FetchId previous = 0;
    for (const std::uint32_t slot : active_) {
      const Transfer& t = slots_[slot];
      SPERKE_DCHECK(t.id > previous,
                    "Link: active ids not strictly ascending at ", t.id);
      previous = t.id;
      allocated_bps += t.rate_bps;
      SPERKE_DCHECK(t.rate_bps <= cap_bps * (1.0 + 1e-9) + 1e-6,
                    "Link: transfer ", t.id, " exceeds Mathis cap");
    }
    SPERKE_DCHECK(allocated_bps <= capacity_bps * (1.0 + 1e-9) + 1e-6,
                  "Link: water-filling over-allocated ", allocated_bps,
                  " bps of ", capacity_bps);
  }
}

void Link::arm_wakeup() {
  // Next wake-up: earliest completion (or scheduled mid-flight failure) or
  // bandwidth-trace step. Fault-window boundaries have their own events.
  sim::Time next = sim::Time{std::numeric_limits<std::int64_t>::max()};
  const double clock_room_us = 9.2e18 - static_cast<double>(simulator_.now().count());
  for (const std::uint32_t slot : active_) {
    const Transfer& t = slots_[slot];
    if (t.rate_bps <= 0.0) continue;
    const double to_go = t.fail_at_remaining_bytes >= 0.0
                             ? t.remaining_bytes - t.fail_at_remaining_bytes
                             : t.remaining_bytes;
    const double secs = std::max(to_go, 0.0) * 8.0 / t.rate_bps;
    // A completion past the clock's range (a near-zero rate, as under a
    // 1e-200 capacity collapse) arms nothing, like a zero rate: the
    // window's end or a trace step reflows the transfer first.
    if (!(secs * 1e6 < clock_room_us)) continue;
    // Round *up* to at least one microsecond: rounding a sub-tick
    // completion down to zero would respawn this event at the same
    // instant forever.
    sim::Duration wait = sim::seconds(secs);
    if (wait <= sim::Duration{0}) wait = sim::Duration{1};
    next = std::min(next, simulator_.now() + wait);
  }
  if (const auto change = config_.bandwidth.next_change_after(simulator_.now())) {
    next = std::min(next, *change);
  }
  if (wakeup_armed_) {
    simulator_.cancel(wakeup_);
    wakeup_armed_ = false;
  }
  if (next != sim::Time{std::numeric_limits<std::int64_t>::max()}) {
    wakeup_ = simulator_.schedule_at(next, [this, alive = alive_] {
      if (!*alive) return;
      wakeup_armed_ = false;
      on_wakeup();
    });
    wakeup_armed_ = true;
  }
}

void Link::on_wakeup() {
  advance();
  // Collect completions before reflowing so freed capacity redistributes.
  // Compacting the active index in place preserves its ascending-id
  // order, which is also the callback firing order.
  std::vector<Completion> completions = std::move(completed_scratch_);
  completions.clear();
  const sim::Time now = simulator_.now();
  std::size_t keep = 0;
  for (const std::uint32_t slot : active_) {
    Transfer& t = slots_[slot];
    if (t.fail_at_remaining_bytes >= 0.0 &&
        t.remaining_bytes <= t.fail_at_remaining_bytes + kCompleteEpsilonBytes) {
      // Scheduled mid-flight failure: report the partial progress.
      completions.push_back(
          settle(slot, {TransferStatus::kFailed, now, t.counted_bytes}));
    } else if (t.remaining_bytes <= kCompleteEpsilonBytes) {
      // Square up the fluid rounding: a completed transfer delivered
      // exactly its size, no matter how the increments rounded.
      bytes_delivered_ += t.total_bytes - t.counted_bytes;
      completions.push_back(
          settle(slot, {TransferStatus::kCompleted, now, t.total_bytes}));
    } else {
      active_[keep++] = slot;
    }
  }
  active_.resize(keep);
  if (completions.empty() && capacity_kbps_now() * 1000.0 == rates_capacity_bps_) {
    // Nothing changed: the active set is intact and capacity is what the
    // current rates were computed from, so recomputing would reproduce
    // them bit-for-bit. Just re-arm the next wake-up.
    arm_wakeup();
  } else {
    reflow();
  }
  fire_completions(std::move(completions));
}

void Link::fire_one(Completion completion) {
  std::vector<Completion> completions = std::move(completed_scratch_);
  completions.clear();
  completions.push_back(std::move(completion));
  fire_completions(std::move(completions));
}

void Link::fire_completions(std::vector<Completion> completions) {
  // The vector is a local (not the scratch member) while callbacks run: a
  // callback may destroy the Link, and a local stays valid through that.
  // The capacity returns to the scratch afterwards.
  if (completions.empty()) {  // a wake-up that settled nothing
    completed_scratch_ = std::move(completions);
    return;
  }
  const auto alive = alive_;
  for (Completion& c : completions) {
    if (*alive) {  // members are gone once a callback destroys the Link
      // No-double-fire: a completion only exists for a transfer whose slot
      // was already freed (and maybe taken by a later fetch) — cancel() on
      // a finished/failed id must find nothing and return false, never
      // re-fire (DESIGN.md §10).
      SPERKE_CHECK(slots_[c.slot].id != c.id,
                   "Link: completion fired for still-tracked transfer ", c.id);
      if constexpr (SPERKE_DCHECK_IS_ON) {
        SPERKE_DCHECK(fired_ids_.insert(c.id).second,
                      "Link: completion double-fired for transfer ", c.id);
      }
    }
    if (c.callback) c.callback(c.result);
  }
  if (*alive) completed_scratch_ = std::move(completions);
}

}  // namespace sperke::net
