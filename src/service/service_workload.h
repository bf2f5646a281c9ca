// Deterministic service-fleet generation.
//
// Every spec is a pure function of (config, index) — there is no
// sequential RNG state — so a fleet is reproducible from its config alone.
// The same random-access construction applies to the traffic series
// helpers below: a materialized series and a tick-by-tick cursor agree
// exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "service/service.h"

namespace ckpt {

struct ServiceFleetConfig {
  int services = 4;
  std::uint64_t seed = 31;
  // Id namespace: service i gets id first_id + i. Keep disjoint from the
  // batch workload's job ids.
  std::int64_t first_id = 1 << 20;

  SimTime start = 0;
  SimTime end = kDay;

  int min_replicas = 3;
  int max_replicas = 6;
  Resources demand_per_replica{2.0, 8LL * 1024 * 1024 * 1024};
  int priority = 5;
  int latency_class = 2;
  double memory_write_rate = 0.02;

  // Peak load is drawn per service in [peak_rps_min, peak_rps_max]; the
  // per-replica capacity is then sized so the full warm fleet runs at
  // `peak_utilization` at peak (headroom of roughly one replica decides
  // whether losing one violates the SLO near the peak).
  double peak_rps_min = 1e6;
  double peak_rps_max = 4e6;
  double peak_utilization = 0.80;
  double base_fraction_min = 0.25;
  double base_fraction_max = 0.45;
  SimDuration period = kDay;
  // Peaks are spread across the day: service i's phase advances by
  // period/services plus a hashed offset within the slot.
  SimDuration slo_p99 = Millis(250);
  SimDuration warmup = Minutes(3);
  double warmup_factor = 0.25;
};

// Spec for service `index` (0-based); pure in (config, index).
ServiceSpec MakeServiceSpec(const ServiceFleetConfig& config, int index);

// All `config.services` specs at once.
std::vector<ServiceSpec> GenerateServiceFleet(const ServiceFleetConfig& config);

// --- Traffic series ---------------------------------------------------------
// The jittered per-tick rate series over [spec.start, spec.end), sampled at
// tick boundaries (tick_index k at time spec.start + (k+1)*tick — the end
// of the interval the sample accounts, matching ServiceManager::Tick).

std::vector<double> MaterializeTraffic(const ServiceSpec& spec,
                                       SimDuration tick);

class TrafficCursor {
 public:
  TrafficCursor(const ServiceSpec& spec, SimDuration tick)
      : spec_(spec), tick_(tick) {}
  // Emits the next tick's jittered rate; false once the horizon is reached.
  bool Next(double* rate);

 private:
  ServiceSpec spec_;
  SimDuration tick_;
  std::int64_t next_ = 0;
};

}  // namespace ckpt
