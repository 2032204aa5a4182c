#include "host/event_loop.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <system_error>

namespace vsr::host {

namespace {

// All loops in a process share one epoch, so timestamps in traces and bench
// output from different nodes are directly comparable.
std::chrono::steady_clock::time_point ProcessEpoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

Time SteadyNow() {
  return static_cast<Time>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - ProcessEpoch())
          .count());
}

int CheckFd(int fd, const char* what) {
  if (fd < 0) throw std::system_error(errno, std::generic_category(), what);
  return fd;
}

}  // namespace

EventLoop::EventLoop()
    : epoll_fd_(CheckFd(::epoll_create1(EPOLL_CLOEXEC), "epoll_create1")),
      wake_fd_(CheckFd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC), "eventfd")) {
  ProcessEpoch();  // pin the epoch before any thread races to create it
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = this;  // the one entry that is not an IoHandler
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  Stop();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EventLoop::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  thread_ = std::thread([this] { Run(); });
}

void EventLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  Wake();
  if (thread_.joinable()) thread_.join();
}

bool EventLoop::OnLoopThread() const {
  return std::this_thread::get_id() == thread_.get_id();
}

bool EventLoop::Running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_ && !stop_;
}

void EventLoop::Watch(int fd, std::uint32_t events, IoHandler* handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = handler;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
}

void EventLoop::Modify(int fd, std::uint32_t events, IoHandler* handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = handler;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EventLoop::Unwatch(int fd, IoHandler* handler) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  for (int i = ready_next_; i < ready_count_; ++i) {
    if (ready_[i].data.ptr == handler) ready_[i].data.ptr = nullptr;
  }
}

Time EventLoop::Now() const { return SteadyNow(); }

TimerId EventLoop::At(Time deadline, std::function<void()> fn) {
  TimerId id;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = queue_.Push(deadline, std::move(fn));
    if (sleeping_ && deadline < sleep_until_) {
      sleep_until_ = deadline;
      wake = true;
    }
  }
  if (wake) Wake();
  return id;
}

TimerId EventLoop::After(Duration delay, std::function<void()> fn) {
  return At(SteadyNow() + delay, std::move(fn));
}

void EventLoop::Cancel(TimerId id) {
  if (id == kNoTimer) return;
  std::lock_guard<std::mutex> lock(mu_);
  queue_.Cancel(id);
}

void EventLoop::Wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::Run() {
  while (FireDueTimers()) PollIo();
}

bool EventLoop::FireDueTimers() {
  std::unique_lock<std::mutex> lock(mu_);
  const Time now = SteadyNow();
  const TimerId horizon = queue_.next_id();
  while (!stop_) {
    auto due = queue_.PopDue(now, horizon);
    if (!due) break;
    lock.unlock();
    due->fn();  // may call At/After/Cancel re-entrantly (different lock scope)
    lock.lock();
  }
  return !stop_;
}

void EventLoop::PollIo() {
  timespec timeout{};
  const timespec* wait = nullptr;  // null: no timer, sleep until an fd
  bool sleeps;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sleep_until_ = queue_.NextDeadline();
    if (sleep_until_ != TimerQueue::kNever) {
      const Time now = SteadyNow();
      const Duration left = sleep_until_ > now ? sleep_until_ - now : 0;
      timeout.tv_sec = static_cast<time_t>(left / kSecond);
      timeout.tv_nsec = static_cast<long>(left % kSecond) * 1000;
      wait = &timeout;
    }
    sleeps = wait == nullptr || timeout.tv_sec != 0 || timeout.tv_nsec != 0;
    sleeping_ = sleeps;
  }
  const int n = ::epoll_pwait2(epoll_fd_, ready_, kMaxEvents, wait, nullptr);
  if (n < 0 && errno != EINTR) {
    // A kernel before 5.11 (no epoll_pwait2) or a broken epoll set leaves
    // the node without its loop: fail-stop.
    throw std::system_error(errno, std::generic_category(), "epoll_pwait2");
  }
  if (sleeps) {
    std::lock_guard<std::mutex> lock(mu_);
    sleeping_ = false;
  }
  ready_count_ = n > 0 ? n : 0;  // EINTR: back to the timers
  for (ready_next_ = 0; ready_next_ < ready_count_;) {
    const epoll_event ev = ready_[ready_next_++];
    if (ev.data.ptr == nullptr) continue;  // unwatched earlier in this batch
    if (ev.data.ptr == this) {
      std::uint64_t count;
      [[maybe_unused]] ssize_t r = ::read(wake_fd_, &count, sizeof(count));
      continue;
    }
    static_cast<IoHandler*>(ev.data.ptr)->OnIo(ev.events);
  }
  ready_count_ = 0;
}

}  // namespace vsr::host
