// Real-time single-threaded event loop: epoll for socket readiness plus a
// timer heap implementing the Executor interface on the monotonic clock.
//
// This is the runtime under the real-TCP deployment mode (src/tcp): the same
// Node/BA* code that runs in the deterministic simulator runs here against
// wall-clock timers and kernel sockets.
#ifndef ALGORAND_SRC_TCP_EVENT_LOOP_H_
#define ALGORAND_SRC_TCP_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>

#include "src/common/executor.h"

namespace algorand {

class EventLoop : public Executor {
 public:
  using FdHandler = std::function<void(uint32_t epoll_events)>;

  EventLoop();
  ~EventLoop() override;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // --- Executor ---
  // Monotonic nanoseconds since the loop was constructed.
  SimTime now() const override;
  void Schedule(SimTime delay, Callback&& fn) override;
  void ScheduleAt(SimTime when, Callback&& fn) override;

  // --- Sockets ---
  // Registers a non-blocking fd; handler runs with the epoll event mask.
  // `events` is an EPOLL* bitmask (EPOLLIN / EPOLLOUT / ...).
  void AddFd(int fd, uint32_t events, FdHandler handler);
  void ModifyFd(int fd, uint32_t events);
  void RemoveFd(int fd);

  // Runs until Stop() or until `predicate` returns true (checked after every
  // dispatch batch). A zero predicate means run until Stop().
  void Run(const std::function<bool()>& stop_predicate = nullptr);
  // Runs for at most `duration` wall time.
  void RunFor(SimTime duration);
  void Stop() { stopped_ = true; }

 private:
  void DispatchTimers();
  // Milliseconds until the next timer (or `cap`), for epoll_wait.
  int NextTimeoutMs(int cap_ms) const;

  int epoll_fd_;
  SimTime start_;
  bool stopped_ = false;
  uint64_t next_seq_ = 0;
  std::map<std::pair<SimTime, uint64_t>, Callback> timers_;
  std::unordered_map<int, FdHandler> handlers_;
};

}  // namespace algorand

#endif  // ALGORAND_SRC_TCP_EVENT_LOOP_H_
