// A shared bandwidth pool drained fair-share by concurrent flows.
//
// Models the aggregate stages checkpoint traffic contends on — a rack's
// uplink, the DFS ingest backbone — in the spirit of Herault et al.'s
// interfering-checkpoints work: N simultaneous flows each see capacity/N,
// with the per-flow rate recomputed whenever a flow starts or finishes
// (processor sharing). All arithmetic is deterministic: progress is
// advanced at the old rate before every membership change, and a single
// next-completion event is rescheduled through Simulator::Cancel, so runs
// are bit-for-bit reproducible regardless of how many flows interleave.
//
// Flows live in two parallel arrays in start order (remaining bytes and
// completion callbacks); a finished flow is removed by one stable
// compaction pass, so finished flows are delivered in start order.
//
// The smallest remaining byte count is kept exact without a walk.
// Advance() applies r = max(0, r - drained) to every flow and the same
// operation to min_remaining_. Under IEEE round-to-nearest, subtraction of
// a fixed `drained` and max(0, .) are both monotonic, so the flow that was
// smallest stays smallest and its new value equals max(0, min - drained)
// bit for bit. StartFlow() folds in the new flow and the compaction pass
// recomputes the minimum over the survivors, so every Reschedule() costs
// O(1) and arms the same event the full walk would.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/simulator.h"

namespace ckpt {

class BandwidthDomain {
 public:
  BandwidthDomain(Simulator* sim, std::string name, Bandwidth capacity);

  BandwidthDomain(const BandwidthDomain&) = delete;
  BandwidthDomain& operator=(const BandwidthDomain&) = delete;

  // Start draining `bytes` through the pool; `done` fires when the flow's
  // bytes have fully drained at whatever fair-share rates prevailed. A
  // null `done` is skipped. Every other active flow slows down
  // immediately.
  void StartFlow(Bytes bytes, SimCallback done);

  // Drain time for a hypothetical flow of `bytes` entering now, assuming
  // the current flow population persists (each of the n+1 flows then gets
  // capacity/(n+1)). The no-contention estimate when the pool is idle.
  SimDuration EstimateDrain(Bytes bytes) const;

  // Slowdown factor a new flow would see vs an idle pool: active()+1.
  double ContentionFactor() const {
    return static_cast<double>(remaining_.size() + 1);
  }

  const std::string& name() const { return name_; }
  Bandwidth capacity() const { return capacity_; }
  int active_flows() const { return static_cast<int>(remaining_.size()); }
  int peak_flows() const { return peak_flows_; }
  std::int64_t flows_completed() const { return flows_completed_; }
  Bytes total_bytes() const { return total_bytes_; }
  // Total sim time with at least one active flow.
  SimDuration busy_time() const { return busy_time_; }

 private:
  // Accrue progress to Now() at the current per-flow rate.
  void Advance();
  // Cancel and re-arm the single next-completion event.
  void Reschedule();
  void OnCompletion();
  double PerFlowRate() const;  // bytes per microsecond

  Simulator* sim_;
  std::string name_;
  Bandwidth capacity_;

  // Active flows in start order: bytes left (fractional across rate
  // changes) and the completion callback at the same index.
  std::vector<double> remaining_;
  std::vector<SimCallback> done_;
  double min_remaining_ = 0;  // min of remaining_; meaningless when empty
  // Callbacks of the flows one OnCompletion() finished, reused across calls.
  std::vector<SimCallback> finished_;
  SimTime last_advance_ = 0;
  EventHandle next_event_;
  bool event_armed_ = false;

  int peak_flows_ = 0;
  std::int64_t flows_completed_ = 0;
  Bytes total_bytes_ = 0;
  SimDuration busy_time_ = 0;
};

}  // namespace ckpt
