// Wire-layer replay: the frames a traced run sampled (type plus payload) are
// decoded with each message's public Decode, re-encoded with vr::EncodeMsg,
// and checksummed with wire::Crc32, outside the run. The result is the wire
// layer's cost per frame of each type on the workload's own traffic.
#pragma once

#include <vector>

#include "common.h"
#include "trace.h"

namespace vsr::perfbench {

// Fills the per-type costs, the sample size and the number of frames whose
// re-encoding differs from the bytes that were sent.
void ReplayWire(const std::vector<const SpanLog*>& logs, TraceSummary& out);

}  // namespace vsr::perfbench
