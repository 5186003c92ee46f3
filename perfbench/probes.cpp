#include "probes.h"

#include <chrono>
#include <cmath>
#include <map>
#include <set>

#include "cluster/shared_link.h"
#include "codec/container.h"
#include "codec/encoding_level.h"
#include "common/sha256.h"
#include "common/thread_pool.h"
#include "fabric/hash_ring.h"
#include "net/link.h"
#include "prefix/radix_index.h"
#include "streamer/streamer.h"

namespace cachegen::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Distinct contexts of the trace, first-seen order, at most `max`.
std::vector<const ClusterRequest*> DistinctContexts(
    const std::vector<ClusterRequest>& trace, size_t max) {
  std::set<std::string> seen;
  std::vector<const ClusterRequest*> out;
  for (const ClusterRequest& rq : trace) {
    if (out.size() >= max) break;
    if (seen.insert(rq.context_id).second) out.push_back(&rq);
  }
  return out;
}

// Fixed iteration counts: each probe runs tens to hundreds of milliseconds.
constexpr size_t kLinkIters = 200000;
constexpr size_t kStreamIters = 200000;
constexpr size_t kRadixIters = 50000;
constexpr size_t kRingIters = 2000000;
constexpr size_t kPoolIters = 200000;
constexpr double kHashBytes = 32e6;  // SHA-256 and parse replay volume

}  // namespace

ProbeResult RunProbes(Deployment& d, const std::vector<ClusterRequest>& trace,
                      const std::vector<RequestOutcome>& outcomes,
                      const std::filesystem::path& scratch) {
  ProbeResult r;
  const auto add = [&r](const std::string& name, double value,
                        const std::string& unit) {
    r.metrics.push_back({name, value, unit});
  };
  const auto fail = [&r](const std::string& what) {
    if (r.failure.empty()) r.failure = what;
  };
  Engine& engine = d.engine();
  const auto& levels = DefaultEncodingLevels();
  const std::vector<const ClusterRequest*> contexts = DistinctContexts(trace, 64);
  const ContextSpec& spec = contexts.front()->spec;
  const double ktok = static_cast<double>(spec.num_tokens) / 1000.0;

  // --- llm: prefill ----------------------------------------------------------
  auto t0 = Clock::now();
  const KVCache kv = engine.CalculateKV(spec);
  add("llm.prefill_ms_per_ktok", Since(t0) * 1e3 / ktok, "ms/ktok");

  // --- codec: encode every chunk at every level, enhancement estimate --------
  struct Encoded {
    size_t chunk = 0;
    EncodedChunk enc;
    std::vector<uint8_t> bytes;
  };
  const auto ranges = SplitIntoChunks(spec.num_tokens, engine.options().chunk_tokens);
  std::vector<KVCache> slices;
  std::vector<Encoded> encoded;
  double encode_s = 0.0, enh_s = 0.0;
  for (size_t i = 0; i < ranges.size(); ++i) {
    slices.push_back(kv.SliceTokens(ranges[i].begin, ranges[i].end));
    for (const EncodingLevel& lv : levels) {
      t0 = Clock::now();
      EncodedChunk enc = engine.EncoderFor(lv.id).EncodeChunk(
          slices.back(), static_cast<uint32_t>(i), ranges[i].begin);
      encode_s += Since(t0);
      t0 = Clock::now();
      const double enh =
          engine.LayeredFor(lv.id).EstimateEnhancementBytes(slices.back(), enc);
      enh_s += Since(t0);
      if (!(enh > 0.0)) fail("enhancement estimate is not positive");
      std::vector<uint8_t> bytes = SerializeChunk(enc);
      encoded.push_back({i, std::move(enc), std::move(bytes)});
    }
  }
  add("codec.encode_ms_per_ktok", encode_s * 1e3 / ktok, "ms/ktok");
  add("codec.enh_estimate_ms_per_ktok", enh_s * 1e3 / ktok, "ms/ktok");

  double stream_bytes = 0.0;
  for (const Encoded& e : encoded) stream_bytes += static_cast<double>(e.bytes.size());
  const size_t replays =
      static_cast<size_t>(std::ceil(kHashBytes / std::max(stream_bytes, 1.0)));

  // --- common: SHA-256 over the serialized bitstreams ------------------------
  uint8_t digest_xor = 0;
  t0 = Clock::now();
  for (size_t k = 0; k < replays; ++k) {
    for (const Encoded& e : encoded) digest_xor ^= Sha256Of(e.bytes)[0];
  }
  add("common.sha256_mb_s", stream_bytes * static_cast<double>(replays) / 1e6 / Since(t0),
      "MB/s");
  (void)digest_xor;

  // --- codec: container parse ------------------------------------------------
  t0 = Clock::now();
  for (size_t k = 0; k < replays; ++k) {
    for (const Encoded& e : encoded) {
      const EncodedChunk parsed = ParseChunk(e.bytes);
      if (parsed.streams != e.enc.streams || parsed.num_tokens != e.enc.num_tokens) {
        fail("ParseChunk did not round-trip a serialized chunk");
      }
    }
  }
  add("codec.parse_mb_s", stream_bytes * static_cast<double>(replays) / 1e6 / Since(t0),
      "MB/s");

  // --- codec: decode (one level per decode, as a served chunk is) -----------
  std::vector<double> mse(levels.size(), 0.0);
  double decode_s = 0.0;
  for (size_t j = 0; j < encoded.size(); ++j) {
    const Encoded& e = encoded[j];
    t0 = Clock::now();
    const KVCache out = engine.DecoderFor(e.enc.level_id).DecodeChunk(e.enc);
    decode_s += Since(t0);
    if (out.num_tokens() != slices[e.chunk].num_tokens()) {
      fail("decoded chunk has the wrong token count");
      continue;
    }
    mse[static_cast<size_t>(e.enc.level_id)] += out.Mse(slices[e.chunk]);
  }
  if (!(std::isfinite(mse.front()) && mse.front() <= mse.back())) {
    fail("finest level decodes with more error than the coarsest");
  }
  add("codec.decode_ms_per_ktok",
      decode_s * 1e3 / (ktok * static_cast<double>(levels.size())), "ms/ktok");

  // --- common: empty thread-pool job -----------------------------------------
  ThreadPool& pool = ThreadPool::Instance();
  t0 = Clock::now();
  for (size_t k = 0; k < kPoolIters; ++k) pool.Run(pool.size(), [](size_t) {});
  add("common.pool_run_us", Since(t0) * 1e6 / kPoolIters, "us");

  // --- serving: store_kv and assemble_kv ---------------------------------------
  t0 = Clock::now();
  engine.StoreKV("perfbench-probe-store", spec);
  add("serving.store_kv_ms_per_ktok", Since(t0) * 1e3 / ktok, "ms/ktok");

  const ClusterRequest* stored = nullptr;
  for (const ClusterRequest* rq : contexts) {
    if (d.tier().ContainsContext(rq->context_id)) {
      stored = rq;
      break;
    }
  }
  if (stored == nullptr) {
    fail("no context of the trace is stored after the serve");
  } else {
    const ContextSpec& s = stored->spec;
    const size_t n_chunks =
        SplitIntoChunks(s.num_tokens, engine.options().chunk_tokens).size();
    t0 = Clock::now();
    const KVCache assembled = engine.AssembleKV(
        stored->context_id, s, std::vector<int>(n_chunks, DefaultLevel().id));
    add("serving.assemble_kv_ms_per_ktok",
        Since(t0) * 1e3 / (static_cast<double>(s.num_tokens) / 1000.0), "ms/ktok");
    if (assembled.num_tokens() != s.num_tokens) fail("AssembleKV lost tokens");
    // Text chunks are recomputed bit-exactly.
    const KVCache text =
        engine.AssembleKV(stored->context_id, s, std::vector<int>(n_chunks, -1));
    if (text.Mse(engine.CalculateKV(s)) != 0.0) {
      fail("text-path AssembleKV differs from prefill");
    }
  }

  // --- cluster: one flow through the SharedLink fluid simulation -------------
  {
    SharedLink link(BandwidthTrace::Constant(kLinkGbps));
    double end_sum = 0.0;
    t0 = Clock::now();
    for (size_t k = 0; k < kLinkIters; ++k) {
      const double bytes = std::max(outcomes[k % outcomes.size()].bytes_sent, 1.0);
      const SharedLink::FlowId id = link.Register(link.now());
      const TransferRecord rec = link.Transfer(id, bytes);
      link.CompleteFlow(id, rec.end_s, k);
      const SharedLink::Completion c = link.PopCompletion(1);
      link.ReleaseHold(c.hold);
      end_sum += rec.Seconds();
    }
    add("cluster.shared_link_transfer_us", Since(t0) * 1e6 / kLinkIters, "us");
    if (!(end_sum > 0.0)) fail("SharedLink transfers took no virtual time");
  }

  // --- streamer: KVStreamer::Stream over a private link ----------------------
  {
    // One streamer per SLO class of the trace (the adapter is built per SLO).
    std::map<double, KVStreamer> streamers;
    for (const ClusterRequest& rq : trace) {
      streamers.try_emplace(rq.slo_s, engine.cost(), engine.model(), rq.slo_s,
                            levels.size());
    }
    std::map<std::string, ContextPlan> plans;
    for (const ClusterRequest* rq : contexts) {
      plans.emplace(rq->context_id, engine.PlanFromCalibration(rq->spec.num_tokens));
    }
    const double workers = static_cast<double>(d.spec().workers);
    const double share_gbps = kLinkGbps / workers;
    double quality = 0.0;
    t0 = Clock::now();
    for (size_t k = 0; k < kStreamIters; ++k) {
      const ClusterRequest& rq = trace[k % trace.size()];
      const auto it = plans.find(rq.context_id);
      if (it == plans.end()) continue;
      Link link(BandwidthTrace::Constant(share_gbps));
      quality += streamers.at(rq.slo_s)
                     .Stream(it->second, link,
                             1.0 / workers, share_gbps)
                     .quality;
    }
    add("streamer.stream_us", Since(t0) * 1e6 / kStreamIters, "us");
    if (!(quality > 0.0)) fail("streamer delivered no quality");
  }

  // --- prefix: radix longest-prefix lookup over the trace's token ids --------
  {
    std::map<std::string, std::vector<uint32_t>> tokens;
    RadixPrefixIndex index;
    for (size_t i = 0; i < contexts.size(); ++i) {
      auto& ids = tokens[contexts[i]->context_id];
      ids = ContextTokenIds(contexts[i]->spec);
      if (i % 2 == 0) index.Insert(ids);  // half the contexts are cached
    }
    size_t matched = 0;
    size_t lookups = 0;
    t0 = Clock::now();
    for (size_t k = 0; k < kRadixIters; ++k) {
      const auto it = tokens.find(trace[k % trace.size()].context_id);
      if (it == tokens.end()) continue;
      matched += index.LongestPrefixTokens(it->second);
      ++lookups;
    }
    add("prefix.radix_lookup_ns",
        Since(t0) * 1e9 / static_cast<double>(std::max<size_t>(lookups, 1)), "ns");
    if (matched == 0) fail("radix index matched no prefix");
  }

  // --- fabric: consistent-hash placement -------------------------------------
  {
    const HashRing ring(4);
    uint64_t placed = 0;
    t0 = Clock::now();
    for (size_t k = 0; k < kRingIters; ++k) {
      placed += ring.PrimaryNode(trace[k % trace.size()].context_id);
    }
    add("fabric.ring_primary_ns", Since(t0) * 1e9 / kRingIters, "ns");
    if (placed >= 4 * kRingIters) fail("HashRing placed a key off the ring");
  }

  // --- storage: one chunk written through the directory-backed store --------
  {
    const std::filesystem::path root = scratch / "file-probe";
    {
      FileKVStore store(root);
      t0 = Clock::now();
      for (size_t j = 0; j < encoded.size(); ++j) {
        store.Put({"probe", static_cast<uint32_t>(encoded[j].chunk),
                   encoded[j].enc.level_id},
                  encoded[j].bytes);
      }
      add("storage.file_put_ms",
          Since(t0) * 1e3 / static_cast<double>(encoded.size()), "ms");
      const auto back = store.Get({"probe", 0, encoded.front().enc.level_id});
      if (!back || *back != encoded.front().bytes) {
        fail("FileKVStore did not read back a written chunk");
      }
    }
    std::filesystem::remove_all(root);
  }
  return r;
}

}  // namespace cachegen::perfbench
