// Event-loop instrumentation for sim::Simulator. The simulator sits below
// obs in the module graph, so instead of hooking the kernel itself a
// SimMonitor rides the simulator as a periodic task, sampling queue depth
// and event throughput into the metrics registry:
//
//   sim.queue_depth      (gauge)     pending events at the last sample
//   sim.queue_depth_hist (histogram) pending events per sample
//   sim.events_per_sec   (gauge)     events executed per simulated second
//   sim.samples          (counter)   number of samples taken
#pragma once

#include <cstdint>

#include "obs/telemetry.h"
#include "sim/periodic.h"
#include "sim/simulator.h"

namespace sperke::obs {

class SimMonitor {
 public:
  // `simulator` and `telemetry` must outlive the monitor.
  SimMonitor(sim::Simulator& simulator, Telemetry& telemetry,
             sim::Duration period = sim::seconds(1.0));

  void stop() { task_.stop(); }
  [[nodiscard]] bool running() const { return task_.running(); }

  // Queue-depth quantile bound over all samples so far (q in [0,1]),
  // straight from sim.queue_depth_hist via histogram_quantile_bound().
  [[nodiscard]] double queue_depth_quantile(double q) const {
    return histogram_quantile_bound(queue_depth_hist_, q);
  }

 private:
  void sample();

  sim::Simulator& simulator_;
  Gauge& queue_depth_;
  Histogram& queue_depth_hist_;
  Gauge& events_per_sec_;
  Counter& samples_;
  std::uint64_t last_executed_;
  sim::Time last_sampled_;
  sim::PeriodicTask task_;  // last: arms only once the handles exist
};

}  // namespace sperke::obs
