// Periodic task helper: re-arms itself on the simulator until stopped.
#pragma once

#include <memory>

#include "sim/simulator.h"

namespace sperke::sim {

// Runs `fn` every `period` starting at `start` (default: one period from
// now). Stops when stop() is called, when the owner is destroyed, or when
// the next tick would pass the end of the clock (Time::max()).
class PeriodicTask {
 public:
  PeriodicTask(Simulator& simulator, Duration period, EventFn fn);
  PeriodicTask(Simulator& simulator, Time start, Duration period, EventFn fn);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  [[nodiscard]] bool running() const { return running_; }

 private:
  void arm(Time at);
  // Arm the tick one period from now, or stop when it would not fit the
  // clock.
  void arm_next();

  Simulator& simulator_;
  Duration period_;
  EventFn fn_;
  EventId pending_{};
  bool running_ = true;
  // Guards against the callback firing after destruction.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sperke::sim
