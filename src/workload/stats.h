// Latency/aggregate statistics for workload drivers and benches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace vsr::workload {

class LatencyRecorder {
 public:
  void Add(sim::Duration d) {
    samples_.push_back(d);
    sorted_ = false;
  }

  std::size_t count() const { return samples_.size(); }

  double Mean() const {
    if (samples_.empty()) return 0;
    double sum = 0;
    for (auto s : samples_) sum += static_cast<double>(s);
    return sum / static_cast<double>(samples_.size());
  }

  sim::Duration Percentile(double p) const {
    if (samples_.empty()) return 0;
    Sort();
    double idx = p / 100.0 * static_cast<double>(samples_.size() - 1);
    return samples_[static_cast<std::size_t>(idx + 0.5)];
  }

  sim::Duration Max() const {
    if (samples_.empty()) return 0;
    Sort();
    return samples_.back();
  }

  std::string Summary() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "n=%zu mean=%s p50=%s p99=%s max=%s", count(),
                  sim::FormatDuration(static_cast<sim::Duration>(Mean())).c_str(),
                  sim::FormatDuration(Percentile(50)).c_str(),
                  sim::FormatDuration(Percentile(99)).c_str(),
                  sim::FormatDuration(Max()).c_str());
    return buf;
  }

 private:
  void Sort() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }
  mutable std::vector<sim::Duration> samples_;
  mutable bool sorted_ = true;
};

}  // namespace vsr::workload
