#include "storage/bandwidth_domain.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace ckpt {
namespace {
// A flow is done once its residue drops below half a byte. Completion
// events are rounded up to whole microseconds, so at the scheduled time the
// leading flow has drained past its final byte (modulo ~1e-6-byte floating
// rounding), while no still-active flow legitimately carries less than one
// byte across a full microsecond at the bandwidths we model.
constexpr double kResidueBytes = 0.5;
}  // namespace

BandwidthDomain::BandwidthDomain(Simulator* sim, std::string name,
                                 Bandwidth capacity)
    : sim_(sim), name_(std::move(name)), capacity_(capacity) {
  CKPT_CHECK_GT(capacity_, 0.0) << "bandwidth domain " << name_;
}

double BandwidthDomain::PerFlowRate() const {
  // Bytes per microsecond at the current population.
  return capacity_ / 1e6 / static_cast<double>(remaining_.size());
}

void BandwidthDomain::Advance() {
  const SimTime now = sim_->Now();
  if (now <= last_advance_) return;
  const SimDuration dt = now - last_advance_;
  last_advance_ = now;
  if (remaining_.empty()) return;
  busy_time_ += dt;
  const double drained = static_cast<double>(dt) * PerFlowRate();
  for (double& r : remaining_) r = std::max(0.0, r - drained);
  // The same monotonic operation keeps the minimum exact (see header).
  min_remaining_ = std::max(0.0, min_remaining_ - drained);
}

void BandwidthDomain::StartFlow(Bytes bytes, SimCallback done) {
  CKPT_CHECK_GE(bytes, 0);
  Advance();
  const double size = static_cast<double>(bytes);
  min_remaining_ = remaining_.empty() ? size : std::min(min_remaining_, size);
  remaining_.push_back(size);
  done_.push_back(std::move(done));
  total_bytes_ += bytes;
  peak_flows_ = std::max(peak_flows_, static_cast<int>(remaining_.size()));
  Reschedule();
}

SimDuration BandwidthDomain::EstimateDrain(Bytes bytes) const {
  const double rate =
      capacity_ / 1e6 / static_cast<double>(remaining_.size() + 1);
  return static_cast<SimDuration>(
      std::ceil(static_cast<double>(bytes) / rate));
}

void BandwidthDomain::Reschedule() {
  if (event_armed_) {
    sim_->Cancel(next_event_);
    event_armed_ = false;
  }
  if (remaining_.empty()) return;
  const SimDuration delay = static_cast<SimDuration>(
      std::ceil(min_remaining_ / PerFlowRate()));
  // Advance() ran in the caller, so last_advance_ == Now().
  next_event_ = sim_->ScheduleAt(last_advance_ + delay, [this] { OnCompletion(); });
  event_armed_ = true;
}

void BandwidthDomain::OnCompletion() {
  event_armed_ = false;
  Advance();
  // Collect finished flows in start order, compacting the survivors in
  // place, then re-arm, then deliver: callbacks may start new flows
  // reentrantly and must see a consistent pool.
  double min_left = std::numeric_limits<double>::infinity();
  size_t kept = 0;
  for (size_t i = 0; i < remaining_.size(); ++i) {
    const double r = remaining_[i];
    if (r <= kResidueBytes) {
      finished_.push_back(std::move(done_[i]));
      continue;
    }
    if (kept != i) {
      remaining_[kept] = r;
      done_[kept] = std::move(done_[i]);
    }
    min_left = std::min(min_left, r);
    ++kept;
  }
  flows_completed_ += static_cast<std::int64_t>(remaining_.size() - kept);
  remaining_.resize(kept);
  done_.resize(kept);
  min_remaining_ = min_left;
  Reschedule();
  for (SimCallback& cb : finished_) {
    if (cb) cb();
  }
  finished_.clear();
}

}  // namespace ckpt
