// Spans at the host seam, recorded from outside the program.
//
// Pass-through decorators sit on the seam interfaces a composition
// root wires together, so the traced run builds the same nodes from the same
// classes and only adds the wrappers:
//   * TracingTransport  wraps net::Transport; it times Send and wraps every
//                       registered net::FrameHandler to time OnFrame;
//   * TracingTimers     wraps host::TimerService; it times each callback and
//                       records how late it started against its deadline.
// Each span records what it timed, its start, its duration and its parent
// (the span open on the same thread when it began: a Send inside an OnFrame
// or a timer callback). Spans stay in memory in a SpanLog, one per host
// thread, and are summarised when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common.h"
#include "host/timer.h"
#include "net/transport.h"

namespace vsr::perfbench {

enum class SpanKind : std::uint8_t { kSend, kFrame, kTimer };

struct Span {
  std::int64_t start_ns = 0;  // steady clock
  std::uint32_t dur_ns = 0;
  std::int32_t parent = -1;   // index in the same log; -1 = none
  std::uint32_t aux = 0;      // kTimer: lag in µs; otherwise payload bytes
  SpanKind kind = SpanKind::kSend;
  std::uint8_t type = 0;      // message type (kSend, kFrame)
  std::uint8_t from = 0;
  std::uint8_t to = 0;
};

// The spans of one host thread, plus a sample of the frames it sent (type
// and payload) for the wire replay. Written only by that thread; read by
// others only after the thread stopped, except full().
class SpanLog {
 public:
  struct SampledFrame {
    std::uint16_t type;
    std::vector<std::uint8_t> payload;
  };

  SpanLog(std::size_t span_capacity, std::size_t frame_capacity);

  // Opens a span nested in the currently open one; -1 once the log is full.
  std::int32_t Open(SpanKind kind, std::uint16_t type, std::uint32_t from,
                    std::uint32_t to, std::uint32_t aux);
  void Close(std::int32_t idx);

  // Keeps a copy of a sent frame while sampling is on and room is left.
  void MaybeSample(std::uint16_t type, const std::vector<std::uint8_t>& p);
  void set_sampling(bool on) { sampling_.store(on); }

  bool full() const { return full_.load(std::memory_order_relaxed); }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<SampledFrame>& frames() const { return frames_; }

 private:
  std::size_t span_capacity_;
  std::size_t frame_capacity_;
  std::vector<Span> spans_;
  std::vector<SampledFrame> frames_;
  std::int32_t open_ = -1;
  std::atomic<bool> full_{false};
  std::atomic<bool> sampling_{false};
};

class TracingTransport final : public net::Transport {
 public:
  TracingTransport(net::Transport& inner, SpanLog& log)
      : inner_(inner), log_(log) {}
  TracingTransport(const TracingTransport&) = delete;
  TracingTransport& operator=(const TracingTransport&) = delete;

  void Register(net::NodeId node, net::FrameHandler* handler) override;
  void Unregister(net::NodeId node) override;
  void Send(net::NodeId from, net::NodeId to, std::uint16_t type,
            std::vector<std::uint8_t> payload) override;
  void SetNodeUp(net::NodeId node, bool up) override {
    inner_.SetNodeUp(node, up);
  }

 private:
  class Handler final : public net::FrameHandler {
   public:
    Handler(net::FrameHandler& inner, SpanLog& log)
        : inner_(inner), log_(log) {}
    void OnFrame(const net::Frame& f) override;

   private:
    net::FrameHandler& inner_;
    SpanLog& log_;
  };

  net::Transport& inner_;
  SpanLog& log_;
  std::map<net::NodeId, std::unique_ptr<Handler>> handlers_;
};

class TracingTimers final : public host::TimerService {
 public:
  TracingTimers(host::TimerService& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  host::Time Now() const override { return inner_.Now(); }
  host::TimerId At(host::Time at, std::function<void()> fn) override;
  host::TimerId After(host::Duration delay, std::function<void()> fn) override;
  void Cancel(host::TimerId id) override { inner_.Cancel(id); }

 private:
  std::function<void()> Wrap(host::Time deadline, std::function<void()> fn);
  host::TimerService& inner_;
  SpanLog& log_;
};

// Folds the spans that started in [t0_ns, t1_ns) into per-run totals.
// With `match_deliveries`, the i-th Send on a link is paired with the i-th
// OnFrame on it (TCP keeps each link in order; valid only when no frame was
// dropped) to give delivery times.
void Summarize(const std::vector<const SpanLog*>& logs, std::int64_t t0_ns,
               std::int64_t t1_ns, bool match_deliveries, TraceSummary& out);

}  // namespace vsr::perfbench
