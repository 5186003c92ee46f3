// The §6 transfer/decode pipeline at a fixed GPU share ("we also pipeline
// the transmission of context chunk i with the decoding of context chunk
// i-1"): one GPU works through a FIFO of stages, each ready once its chunk
// has arrived. Stage i starts when it is ready and stage i-1 is done:
//
//   done[i] = max(ready[i], done[i-1]) + work[i],   done[-1] = start_s.
//
// TTFTModel::CacheGen prices Fig. 14a's exposed decode tail with it, and
// KVStreamer resolves every private-link stream's GPU lane with it. Streams
// on a SharedLink drain their lane at a time-varying share instead
// (SharedLink::DrainGpu).
#pragma once

#include <span>
#include <vector>

namespace cachegen {

// Completion instant of every stage, in order. `ready_s[i]` is when stage i
// can start at the earliest, `work_s[i]` its GPU seconds at the share in
// effect, and `start_s` when the GPU becomes free.
std::vector<double> PipelineTimeline(std::span<const double> ready_s,
                                     std::span<const double> work_s,
                                     double start_s = 0.0);

}  // namespace cachegen
