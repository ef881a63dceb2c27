#include "sim/periodic.h"

#include <stdexcept>

namespace sperke::sim {
namespace {

Duration checked_period(Duration period) {
  if (period <= Duration{0}) throw std::invalid_argument("PeriodicTask: period must be positive");
  return period;
}

}  // namespace

PeriodicTask::PeriodicTask(Simulator& simulator, Duration period, EventFn fn)
    : simulator_(simulator), period_(checked_period(period)), fn_(std::move(fn)) {
  arm_next();
}

PeriodicTask::PeriodicTask(Simulator& simulator, Time start, Duration period,
                           EventFn fn)
    : simulator_(simulator), period_(checked_period(period)), fn_(std::move(fn)) {
  arm(start);
}

PeriodicTask::~PeriodicTask() {
  *alive_ = false;
  stop();
}

void PeriodicTask::stop() {
  if (!running_) return;
  running_ = false;
  simulator_.cancel(pending_);
}

void PeriodicTask::arm(Time at) {
  pending_ = simulator_.schedule_at(at, [this, alive = alive_] {
    if (!*alive || !running_) return;
    fn_();
    if (*alive && running_) arm_next();
  });
}

void PeriodicTask::arm_next() {
  const Time now = simulator_.now();
  if (now > Time::max() - period_) {
    running_ = false;  // the next tick would overflow the clock
    return;
  }
  arm(now + period_);
}

}  // namespace sperke::sim
