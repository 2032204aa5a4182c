#include "trace.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace vsr::perfbench {

SpanLog::SpanLog(std::size_t span_capacity, std::size_t frame_capacity)
    : span_capacity_(span_capacity), frame_capacity_(frame_capacity) {
  spans_.reserve(span_capacity);
  frames_.reserve(frame_capacity);
}

std::int32_t SpanLog::Open(SpanKind kind, std::uint16_t type,
                           std::uint32_t from, std::uint32_t to,
                           std::uint32_t aux) {
  if (spans_.size() >= span_capacity_) {
    full_.store(true, std::memory_order_relaxed);
    return -1;
  }
  Span s;
  s.kind = kind;
  s.type = static_cast<std::uint8_t>(type);
  s.from = static_cast<std::uint8_t>(from);
  s.to = static_cast<std::uint8_t>(to);
  s.aux = aux;
  s.parent = open_;
  const auto idx = static_cast<std::int32_t>(spans_.size());
  open_ = idx;
  s.start_ns = WallNs();
  spans_.push_back(s);
  return idx;
}

void SpanLog::Close(std::int32_t idx) {
  if (idx < 0) return;
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.dur_ns = static_cast<std::uint32_t>(
      std::min<std::int64_t>(WallNs() - s.start_ns,
                             std::numeric_limits<std::uint32_t>::max()));
  open_ = s.parent;
}

void SpanLog::MaybeSample(std::uint16_t type,
                          const std::vector<std::uint8_t>& payload) {
  if (!sampling_.load(std::memory_order_relaxed) ||
      frames_.size() >= frame_capacity_) {
    return;
  }
  frames_.push_back({type, payload});
}

// ---------------------------------------------------------------------------

void TracingTransport::Handler::OnFrame(const net::Frame& f) {
  const std::int32_t span =
      log_.Open(SpanKind::kFrame, f.type, f.from, f.to,
                static_cast<std::uint32_t>(f.payload.size()));
  inner_.OnFrame(f);
  log_.Close(span);
}

void TracingTransport::Register(net::NodeId node, net::FrameHandler* handler) {
  auto wrapper = std::make_unique<Handler>(*handler, log_);
  inner_.Register(node, wrapper.get());
  handlers_[node] = std::move(wrapper);  // the old wrapper is unreachable now
}

void TracingTransport::Unregister(net::NodeId node) {
  inner_.Unregister(node);
  handlers_.erase(node);
}

void TracingTransport::Send(net::NodeId from, net::NodeId to,
                            std::uint16_t type,
                            std::vector<std::uint8_t> payload) {
  const std::int32_t span =
      log_.Open(SpanKind::kSend, type, from, to,
                static_cast<std::uint32_t>(payload.size()));
  log_.MaybeSample(type, payload);
  inner_.Send(from, to, type, std::move(payload));
  log_.Close(span);
}

// ---------------------------------------------------------------------------

std::function<void()> TracingTimers::Wrap(host::Time deadline,
                                          std::function<void()> fn) {
  return [this, deadline, fn = std::move(fn)] {
    const host::Time now = inner_.Now();
    const std::int32_t span =
        log_.Open(SpanKind::kTimer, 0, 0, 0,
                  static_cast<std::uint32_t>(now > deadline ? now - deadline : 0));
    fn();
    log_.Close(span);
  };
}

host::TimerId TracingTimers::At(host::Time at, std::function<void()> fn) {
  const host::Time deadline = std::max(at, inner_.Now());
  return inner_.At(at, Wrap(deadline, std::move(fn)));
}

host::TimerId TracingTimers::After(host::Duration delay,
                                   std::function<void()> fn) {
  return inner_.After(delay, Wrap(inner_.Now() + delay, std::move(fn)));
}

// ---------------------------------------------------------------------------

void Summarize(const std::vector<const SpanLog*>& logs, std::int64_t t0_ns,
               std::int64_t t1_ns, bool match_deliveries, TraceSummary& out) {
  auto in_window = [&](const Span& s) {
    return s.start_ns >= t0_ns && s.start_ns < t1_ns;
  };
  using Link = std::pair<std::uint8_t, std::uint8_t>;
  std::map<Link, std::vector<std::int64_t>> sent, received;

  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    out.spans += spans.size();
    out.spans_full = out.spans_full || log->full();
    // Time covered by child spans, charged back to the parent so each
    // span's self time excludes the Sends it made.
    std::vector<std::uint32_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.dur_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (match_deliveries) {
        if (s.kind == SpanKind::kSend) sent[{s.from, s.to}].push_back(s.start_ns);
        if (s.kind == SpanKind::kFrame) {
          received[{s.from, s.to}].push_back(s.start_ns);
        }
      }
      if (!in_window(s)) continue;
      const double self =
          static_cast<double>(s.dur_ns) - static_cast<double>(child_ns[i]);
      switch (s.kind) {
        case SpanKind::kSend:
          ++out.sends_by_type[s.type];
          out.send_ns += s.dur_ns;
          break;
        case SpanKind::kFrame:
          out.frame_self_ns += self;
          out.frame_self_ns_by_type[s.type] += self;
          break;
        case SpanKind::kTimer:
          out.timer_self_ns += self;
          out.timer_lag_us.push_back(s.aux);
          break;
      }
    }
  }

  out.deliveries_matched = match_deliveries;
  if (!match_deliveries) return;
  for (const auto& [link, sends] : sent) {
    auto it = received.find(link);
    if (it == received.end()) continue;
    const std::vector<std::int64_t>& recvs = it->second;
    const std::size_t n = std::min(sends.size(), recvs.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (sends[i] < t0_ns || sends[i] >= t1_ns) continue;
      out.delivery_us.push_back(static_cast<double>(recvs[i] - sends[i]) /
                                1000.0);
    }
  }
}

}  // namespace vsr::perfbench
