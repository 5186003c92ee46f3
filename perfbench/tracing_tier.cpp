#include "tracing_tier.h"

#include <algorithm>
#include <chrono>

namespace cachegen::perfbench {

namespace {

std::atomic<uint64_t> g_next_id{1};

// The calling thread's most recently used (decorator, buffer) pair. A thread
// that switches decorators registers a fresh buffer with the new one.
struct LocalSlot {
  uint64_t owner = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot t_slot;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TracingTier::TracingTier(std::shared_ptr<CacheTier> inner)
    : inner_(std::move(inner)), kv_(inner_->kv()), id_(g_next_id++) {}

TracingTier::Buffer& TracingTier::Local() const {
  if (t_slot.owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    t_slot.owner = id_;
    t_slot.buffer = buffers_.back().get();
  }
  return *static_cast<Buffer*>(t_slot.buffer);
}

void TracingTier::Record(StorageOp op, uint64_t start_ns, uint64_t bytes) const {
  Local().ops[static_cast<size_t>(op)].push_back({NowNs() - start_ns, bytes});
}

OpStats TracingTier::Stats(StorageOp op) const {
  std::vector<uint64_t> ns;
  OpStats s;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    for (const Sample& x : buf->ops[static_cast<size_t>(op)]) {
      ns.push_back(x.ns);
      s.busy_s += static_cast<double>(x.ns) * 1e-9;
      s.bytes += x.bytes;
    }
  }
  s.calls = ns.size();
  if (!ns.empty()) {
    // Nearest-rank p99.
    const size_t rank = (ns.size() * 99 + 99) / 100;
    std::nth_element(ns.begin(), ns.begin() + (rank - 1), ns.end());
    s.p99_us = static_cast<double>(ns[rank - 1]) * 1e-3;
  }
  return s;
}

double TracingTier::PreStoreCoveredFrac() const {
  uint64_t queried = 0, covered = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    queried += buf->coverage_queried;
    covered += buf->coverage_covered;
  }
  return queried ? static_cast<double>(covered) / static_cast<double>(queried)
                 : 0.0;
}

// --- KVStore -----------------------------------------------------------------

void TracingTier::Put(const ChunkKey& key, std::span<const uint8_t> bytes) {
  kv_.Put(key, bytes);
}

void TracingTier::PutBatch(const std::string& context_id,
                           std::span<const ChunkView> chunks) {
  if (!recording()) return kv_.PutBatch(context_id, chunks);
  uint64_t bytes = 0;
  for (const ChunkView& c : chunks) bytes += c.second.size();
  const uint64_t t0 = NowNs();
  kv_.PutBatch(context_id, chunks);
  Record(StorageOp::kPutBatch, t0, bytes);
}

std::vector<bool> TracingTier::PreStoreCoverage(
    const std::string& context_id, size_t num_chunks,
    std::span<const int32_t> level_ids) const {
  std::vector<bool> covered =
      kv_.PreStoreCoverage(context_id, num_chunks, level_ids);
  if (recording()) {
    Buffer& buf = Local();
    buf.coverage_queried += num_chunks;
    buf.coverage_covered += static_cast<uint64_t>(
        std::count(covered.begin(), covered.end(), true));
  }
  return covered;
}

std::optional<std::vector<uint8_t>> TracingTier::Get(const ChunkKey& key) const {
  if (!recording()) return kv_.Get(key);
  const uint64_t t0 = NowNs();
  auto bytes = kv_.Get(key);
  Record(StorageOp::kGet, t0, bytes ? bytes->size() : 0);
  return bytes;
}

bool TracingTier::ContainsContext(const std::string& context_id) const {
  return kv_.ContainsContext(context_id);
}

void TracingTier::EraseContext(const std::string& context_id) {
  kv_.EraseContext(context_id);
}

uint64_t TracingTier::TotalBytes() const { return kv_.TotalBytes(); }

uint64_t TracingTier::ContextBytes(const std::string& context_id) const {
  return kv_.ContextBytes(context_id);
}

// --- CacheTier ---------------------------------------------------------------

TierLookup TracingTier::LookupAndPin(const std::string& context_id,
                                     const ContextSpec& spec, double t_s) {
  if (!recording()) return inner_->LookupAndPin(context_id, spec, t_s);
  const uint64_t t0 = NowNs();
  const TierLookup r = inner_->LookupAndPin(context_id, spec, t_s);
  Record(StorageOp::kLookup, t0, 0);
  return r;
}

void TracingTier::Pin(const std::string& context_id) { inner_->Pin(context_id); }

void TracingTier::Unpin(const std::string& context_id) {
  if (!recording()) return inner_->Unpin(context_id);
  const uint64_t t0 = NowNs();
  inner_->Unpin(context_id);
  Record(StorageOp::kUnpin, t0, 0);
}

void TracingTier::Touch(const std::string& context_id, double t_s) {
  inner_->Touch(context_id, t_s);
}

void TracingTier::BeginStore(const std::string& context_id,
                             const ContextSpec& spec) {
  inner_->BeginStore(context_id, spec);
}

void TracingTier::AbortStore(const std::string& context_id) {
  inner_->AbortStore(context_id);
}

void TracingTier::Flush() { inner_->Flush(); }

}  // namespace cachegen::perfbench
