// Scheduling abstraction shared by the discrete-event simulator and the
// real-time (TCP) runtime.
//
// Protocol code (Node, BA*) is written against this interface only, so the
// same consensus implementation runs inside the deterministic simulator and
// over real sockets with wall-clock timers.
#ifndef ALGORAND_SRC_COMMON_EXECUTOR_H_
#define ALGORAND_SRC_COMMON_EXECUTOR_H_

#include "src/common/callback.h"
#include "src/common/time_units.h"

namespace algorand {

class Executor {
 public:
  // Move-only with inline storage: scheduling a typical protocol closure
  // neither copies it nor heap-allocates (see callback.h). Any callable —
  // lambdas, std::function, move-only captures — converts implicitly.
  using Callback = UniqueCallback;

  virtual ~Executor() = default;

  // Current time: simulated nanoseconds, or monotonic wall-clock nanoseconds
  // since the runtime started.
  virtual SimTime now() const = 0;

  // Runs `fn` after `delay` (clamped at now for non-positive delays). Taken
  // by rvalue reference down to the event slot, so the callback is relocated
  // into its slot once, not once per layer.
  virtual void Schedule(SimTime delay, Callback&& fn) = 0;

  // Runs `fn` at the absolute time `when` (clamped at now).
  virtual void ScheduleAt(SimTime when, Callback&& fn) = 0;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_COMMON_EXECUTOR_H_
