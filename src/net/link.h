// Fluid-flow network link.
//
// Substitutes for a packet-level TCP path (DESIGN.md §4): concurrent
// transfers share the link's time-varying capacity by max-min fair
// water-filling, each transfer additionally capped by a Mathis-style
// loss/RTT throughput ceiling (rate <= 1.22*MSS/(RTT*sqrt(p))). A transfer
// delivers its first byte one RTT after it starts (request + ramp), then
// progresses at its allocated rate; completions and bandwidth-trace steps
// are simulation events.
//
// Links are also where faults happen (DESIGN.md §10): a seeded FaultPlan on
// the config injects outages, capacity collapses, RTT spikes and
// per-transfer failures as ordinary simulation events, and every transfer
// reports how it ended through a typed TransferResult.
//
// A Link is also the direct net::ChunkSource: fetch(spec) is one transfer
// of spec.bytes at spec.weight; the chunk address and the deadline are
// never looked at.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/bandwidth_trace.h"
#include "net/chunk_source.h"
#include "net/fault.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/rng.h"

namespace sperke::net {

struct LinkConfig {
  std::string name = "link";
  BandwidthTrace bandwidth = BandwidthTrace::constant(10'000.0);
  sim::Duration rtt = sim::milliseconds(40);
  double loss_rate = 0.0;  // [0,1); enters via the Mathis throughput cap
  FaultPlan faults;        // empty = the link never fails (byte-identical)
};

// Throws std::invalid_argument for a negative RTT, a loss rate outside
// [0,1) or NaN, a malformed fault plan, or RTT spikes whose overlapping
// factors push the effective RTT past half the clock range. The bandwidth
// trace checks its own rates when built.
void validate(const LinkConfig& config);

class Link final : public ChunkSource {
 public:
  // Throws what validate(config) throws.
  Link(sim::Simulator& simulator, LinkConfig config);
  ~Link() override;
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Begin transferring `spec.bytes`; `on_done` fires exactly once with the
  // transfer's TransferResult — kCompleted, kFailed (injected fault) or
  // kCancelled (the caller's own cancel()). `spec.weight` sets the
  // transfer's share of the link under contention (HTTP/2-style stream
  // priority): a weight-2 transfer receives twice the bandwidth of a
  // weight-1 transfer while both are active. Throws std::invalid_argument
  // for a non-positive size or weight.
  FetchId fetch(const FetchSpec& spec, TransferCallback on_done) override;

  // Abort a pending/in-flight transfer: fires its callback (synchronously)
  // with kCancelled. Bytes already delivered still count toward
  // bytes_delivered(). Returns false — and fires nothing — if the transfer
  // already finished, failed or was cancelled: the completion callback can
  // never double-fire.
  bool cancel(FetchId id) override;

  [[nodiscard]] sim::Simulator& simulator() override { return simulator_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }

  // Effective RTT right now (config RTT scaled by any active spike window).
  [[nodiscard]] sim::Duration rtt() const override;

  // Capacity of the link right now (kbps) per the bandwidth trace, scaled
  // by any active fault window (zero during an outage).
  [[nodiscard]] double capacity_kbps_now() const;

  // Per-transfer Mathis ceiling (kbps); infinity when loss_rate == 0.
  [[nodiscard]] double mathis_cap_kbps() const;

  // Is the link inside a scheduled outage window right now? (The path-down
  // signal mp failover listens for.)
  [[nodiscard]] bool in_outage() const;

  // Scheduled outage time already elapsed, in seconds.
  [[nodiscard]] double outage_seconds() const;

  // Transfers past their RTT warmup (the size of the active index).
  [[nodiscard]] int active_transfers() const {
    return static_cast<int>(active_.size());
  }
  [[nodiscard]] std::int64_t bytes_delivered() const { return bytes_delivered_; }

  // Current allocated rate of a transfer in kbps (0 while in RTT warmup or
  // if the id is unknown).
  [[nodiscard]] double transfer_rate_kbps(FetchId id) const;

 private:
  struct Transfer {
    FetchId id = 0;  // 0 = a free slot
    double remaining_bytes = 0.0;
    std::int64_t total_bytes = 0;
    std::int64_t counted_bytes = 0;  // already added to bytes_delivered_
    double rate_bps = 0.0;  // stays 0 until the transfer is active
    double weight = 1.0;
    // Seeded mid-flight failure: the transfer fails once remaining_bytes
    // drops to this threshold. Negative = will not fail.
    double fail_at_remaining_bytes = -1.0;
    TransferCallback on_complete;
  };
  struct Completion {
    FetchId id = 0;
    std::uint32_t slot = 0;  // the slot the transfer held until it settled
    TransferCallback callback;
    TransferResult result;
  };

  // Slot of the unsettled transfer `id`, or slots_.size() once it settled.
  [[nodiscard]] std::size_t slot_of(FetchId id) const;
  // Hand a settled transfer's slot back: it becomes free (id 0), and its
  // callback moves into the returned completion.
  [[nodiscard]] Completion settle(std::uint32_t slot, TransferResult result);
  // Move all active transfers forward to now() at their current rates.
  void advance();
  // Recompute fair-share rates (recompute_rates) and (re)schedule the next
  // wake-up event (arm_wakeup). All three walk the active index only.
  void reflow();
  void recompute_rates();
  void arm_wakeup();
  void on_wakeup();
  // First byte of the transfer in `slot`: it joins the active index.
  void on_activate(FetchId id, std::uint32_t slot);
  // Outage start: fail every in-flight transfer (warmup included).
  void on_outage_begin();
  // Any fault-window boundary: settle progress and recompute rates.
  void on_fault_boundary();
  // Fault-window lookups at an absolute time.
  [[nodiscard]] bool in_outage_at(sim::Time t) const;
  [[nodiscard]] double fault_capacity_factor_at(sim::Time t) const;
  // Fire one completion through the scratch vector (cancel, warmup outage).
  void fire_one(Completion completion);
  void fire_completions(std::vector<Completion> completions);

  sim::Simulator& simulator_;
  LinkConfig config_;
  // Every unsettled transfer, warmup and active, in a stable slot: a
  // transfer keeps its slot from fetch() until it settles, and a settled
  // slot (id 0) goes on free_slots_ for the next fetch. Slot order carries
  // no meaning; the table only grows.
  std::vector<Transfer> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Slots of the transfers past their RTT warmup, in strictly ascending id
  // order. An activation inserts at its id position (an RTT spike can
  // activate a later id first), and settling erases in place, so the
  // order holds. The water-filling weight sums, the advance increments and
  // the completion firing order all walk this index, which keeps them
  // bit-exact with a walk of every transfer in id order. A completion
  // callback may fetch or cancel, so no iterator or reference is held
  // across one.
  std::vector<std::uint32_t> active_;
  // Reused by recompute_rates(): the active slots still unallocated.
  std::vector<std::uint32_t> waterfill_scratch_;
  std::vector<Completion> completed_scratch_;
  FetchId next_id_ = 1;
  sim::Time last_update_ = sim::kTimeZero;
  sim::EventId wakeup_{};
  bool wakeup_armed_ = false;
  // Link capacity observed by the last recompute_rates(); lets on_wakeup()
  // skip the recompute when nothing completed and capacity is unchanged
  // (the recomputation would reproduce the current rates bit-for-bit).
  double rates_capacity_bps_ = -1.0;
  std::int64_t bytes_delivered_ = 0;
  // Check-preset-only double-fire detector: every FetchId whose
  // completion callback has already run. Populated under
  // SPERKE_DCHECK_IS_ON only; stays empty (and untouched) in release.
  std::set<FetchId> fired_ids_;
  // Draws the seeded per-transfer failures of config_.faults.
  Rng fault_rng_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sperke::net
