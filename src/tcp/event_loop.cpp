#include "src/tcp/event_loop.h"

#include <sys/epoll.h>
#include <time.h>
#include <unistd.h>

#include <array>
#include <cstdio>

namespace algorand {
namespace {

SimTime MonotonicNow() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<SimTime>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

}  // namespace

EventLoop::EventLoop() : epoll_fd_(epoll_create1(0)), start_(MonotonicNow()) {}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
  }
}

SimTime EventLoop::now() const { return MonotonicNow() - start_; }

void EventLoop::Schedule(SimTime delay, Callback&& fn) {
  ScheduleAt(now() + (delay < 0 ? 0 : delay), std::move(fn));
}

void EventLoop::ScheduleAt(SimTime when, Callback&& fn) {
  if (when < now()) {
    when = now();
  }
  timers_.emplace(std::make_pair(when, next_seq_++), std::move(fn));
}

void EventLoop::AddFd(int fd, uint32_t events, FdHandler handler) {
  handlers_[fd] = std::move(handler);
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
}

void EventLoop::ModifyFd(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EventLoop::RemoveFd(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::DispatchTimers() {
  const SimTime t = now();
  while (!timers_.empty() && timers_.begin()->first.first <= t) {
    auto node = timers_.extract(timers_.begin());
    node.mapped()();
  }
}

int EventLoop::NextTimeoutMs(int cap_ms) const {
  if (timers_.empty()) {
    return cap_ms;
  }
  SimTime delta = timers_.begin()->first.first - now();
  if (delta <= 0) {
    return 0;
  }
  int ms = static_cast<int>(delta / kMillisecond) + 1;
  return ms < cap_ms ? ms : cap_ms;
}

void EventLoop::Run(const std::function<bool()>& stop_predicate) {
  stopped_ = false;
  std::array<epoll_event, 64> events;
  while (!stopped_) {
    if (stop_predicate && stop_predicate()) {
      return;
    }
    DispatchTimers();
    int n = epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                       NextTimeoutMs(50));
    for (int i = 0; i < n; ++i) {
      auto it = handlers_.find(events[static_cast<size_t>(i)].data.fd);
      if (it != handlers_.end()) {
        // Copy: the handler may remove itself.
        FdHandler handler = it->second;
        handler(events[static_cast<size_t>(i)].events);
      }
    }
    DispatchTimers();
  }
}

void EventLoop::RunFor(SimTime duration) {
  SimTime deadline = now() + duration;
  Run([this, deadline] { return now() >= deadline; });
}

}  // namespace algorand
