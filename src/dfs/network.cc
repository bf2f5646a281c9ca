#include "dfs/network.h"

#include <algorithm>
#include <utility>

namespace ckpt {

NetworkModel::NetworkModel(Simulator* sim, NetworkConfig config)
    : sim_(sim), config_(config) {
  CKPT_CHECK(sim != nullptr);
  if (config_.aggregate_bw > 0) {
    aggregate_ = std::make_unique<BandwidthDomain>(sim_, "net.aggregate",
                                                   config_.aggregate_bw);
  }
}

BandwidthDomain* NetworkModel::RackDomain(int rack) {
  auto it = racks_.find(rack);
  if (it == racks_.end()) {
    it = racks_
             .emplace(rack, std::make_unique<BandwidthDomain>(
                                sim_, "net.rack" + std::to_string(rack),
                                config_.rack_uplink_bw))
             .first;
  }
  return it->second.get();
}

NetworkModel::Stages NetworkModel::StagesFor(NodeId src, NodeId dst) {
  Stages stages;
  if (config_.rack_size > 0 && config_.rack_uplink_bw > 0) {
    const int src_rack = RackOf(src);
    const int dst_rack = RackOf(dst);
    if (src_rack == dst_rack) return stages;  // stays on the ToR switch
    stages.Add(RackDomain(src_rack));
    if (aggregate_ != nullptr) stages.Add(aggregate_.get());
    stages.Add(RackDomain(dst_rack));
    return stages;
  }
  if (aggregate_ != nullptr) stages.Add(aggregate_.get());
  return stages;
}

void NetworkModel::StartDomainChain(NodeId src, NodeId dst, Bytes size,
                                    std::function<void()> done) {
  DrainStage(StagesFor(src, dst), 0, size, std::move(done));
}

void NetworkModel::DrainStage(const Stages& stages, int i, Bytes size,
                              std::function<void()> done) {
  if (i >= stages.count) {
    sim_->ScheduleAt(sim_->Now() + config_.fabric_latency, std::move(done));
    return;
  }
  stages.at[static_cast<size_t>(i)]->StartFlow(
      size, [this, stages, i, size, done = std::move(done)]() mutable {
        DrainStage(stages, i + 1, size, std::move(done));
      });
}

SimTime NetworkModel::Transfer(NodeId src, NodeId dst, Bytes size,
                               std::function<void()> done) {
  CKPT_CHECK_GE(size, 0);
  if (src == dst) {
    bytes_transferred_ += size;
    const SimTime at = sim_->Now();
    sim_->ScheduleAt(at, std::move(done));
    return at;
  }
  auto it = links_.find(src);
  CKPT_CHECK(it != links_.end()) << "unknown network node " << src.value();
  Link& link = it->second;
  SimTime start = std::max(link.busy_until, sim_->Now());
  if (config_.charge_receiver) {
    auto dit = links_.find(dst);
    CKPT_CHECK(dit != links_.end())
        << "unknown network node " << dst.value();
    start = std::max(start, dit->second.in_busy_until);
    dit->second.in_busy_until = start + TransferTime(size, config_.link_bw);
  }
  link.busy_until = start + TransferTime(size, config_.link_bw);
  bytes_transferred_ += size;
  const SimTime egress_done = start + TransferTime(size, config_.link_bw);
  if (!HasSharedDomains()) {
    const SimTime delivered = egress_done + config_.fabric_latency;
    sim_->ScheduleAt(delivered, std::move(done));
    return delivered;
  }
  // After the NIC serializes the frame it crosses the shared fabric
  // stages, fair-shared with every concurrent flow; the return value is
  // the no-contention lower bound.
  sim_->ScheduleAt(egress_done,
                   [this, src, dst, size, done = std::move(done)]() mutable {
                     StartDomainChain(src, dst, size, std::move(done));
                   });
  return egress_done + config_.fabric_latency;
}

SimDuration NetworkModel::EstimateTransferContended(NodeId src, NodeId dst,
                                                    Bytes size) const {
  if (src == dst) return 0;
  SimDuration total = EstimateTransfer(size);
  if (!HasSharedDomains()) return total;
  const bool cross_rack =
      config_.rack_size <= 0 || RackOf(src) != RackOf(dst);
  if (config_.rack_size > 0 && config_.rack_uplink_bw > 0) {
    if (!cross_rack) return total;
    for (const int rack : {RackOf(src), RackOf(dst)}) {
      auto it = racks_.find(rack);
      if (it != racks_.end()) {
        total += it->second->EstimateDrain(size);
      } else {
        total += TransferTime(size, config_.rack_uplink_bw);
      }
    }
  }
  if (aggregate_ != nullptr && cross_rack) {
    total += aggregate_->EstimateDrain(size);
  }
  return total;
}

void NetworkModel::ForEachDomain(
    const std::function<void(const BandwidthDomain&)>& fn) const {
  for (const auto& [rack, domain] : racks_) fn(*domain);
  if (aggregate_ != nullptr) fn(*aggregate_);
}

SimDuration NetworkModel::QueueDelay(NodeId node) const {
  auto it = links_.find(node);
  if (it == links_.end()) return 0;
  return it->second.busy_until > sim_->Now()
             ? it->second.busy_until - sim_->Now()
             : 0;
}

}  // namespace ckpt
