#include "storage/kv_store.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "common/sha256.h"

namespace cachegen {

namespace fs = std::filesystem;

namespace {

bool IsSafeIdChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

}  // namespace

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string SanitizeContextId(const std::string& context_id) {
  constexpr size_t kMaxSafeLen = 128;
  const bool reserved =
      context_id.empty() || context_id == "." || context_id == "..";
  bool safe = !reserved && context_id.size() <= kMaxSafeLen;
  if (safe) {
    for (char c : context_id) {
      if (!IsSafeIdChar(c)) {
        safe = false;
        break;
      }
    }
  }
  if (safe) return context_id;

  std::string cleaned;
  cleaned.reserve(std::min<size_t>(context_id.size(), 48) + 34);
  for (char c : context_id) {
    if (cleaned.size() >= 48) break;
    cleaned.push_back(IsSafeIdChar(c) ? c : '_');
  }
  // 128 bits of SHA-256: collision-resistant against adversarial tenants,
  // short enough to stay well inside filesystem name limits. '%' is not in
  // the pass-through alphabet, so no safe id can ever forge a mangled name
  // and collide with a different mangled id.
  return cleaned + "%" + Sha256Hex(Sha256Of(context_id), 16);
}

std::vector<bool> KVStore::PreStoreCoverage(
    const std::string& /*context_id*/, size_t num_chunks,
    std::span<const int32_t> /*level_ids*/) const {
  return std::vector<bool>(num_chunks, false);
}

void KVStore::PutBatch(const std::string& context_id,
                       std::span<const ChunkView> chunks) {
  for (const auto& [key, bytes] : chunks) {
    if (key.context_id != context_id) {
      throw std::invalid_argument("KVStore::PutBatch: key names a different context");
    }
    Put(key, bytes);
  }
}

void KVStore::Insert(const ChunkKey& key, std::vector<uint8_t>&& bytes) {
  Put(key, bytes);
}

std::optional<std::vector<uint8_t>> KVStore::Take(const ChunkKey& key) {
  return Get(key);
}

void MemoryKVStore::Put(const ChunkKey& key, std::span<const uint8_t> bytes) {
  Insert(key, std::vector<uint8_t>(bytes.begin(), bytes.end()));
}

void MemoryKVStore::Insert(const ChunkKey& key, std::vector<uint8_t>&& bytes) {
  data_.insert_or_assign(key, std::move(bytes));
}

std::optional<std::vector<uint8_t>> MemoryKVStore::Take(const ChunkKey& key) {
  auto node = data_.extract(key);
  if (node.empty()) return std::nullopt;
  return std::move(node.mapped());
}

std::optional<std::vector<uint8_t>> MemoryKVStore::Get(const ChunkKey& key) const {
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

bool MemoryKVStore::ContainsContext(const std::string& context_id) const {
  const auto it = data_.lower_bound({context_id, 0, INT32_MIN});
  return it != data_.end() && it->first.context_id == context_id;
}

void MemoryKVStore::EraseContext(const std::string& context_id) {
  for (auto it = data_.begin(); it != data_.end();) {
    if (it->first.context_id == context_id) {
      it = data_.erase(it);
    } else {
      ++it;
    }
  }
}

uint64_t MemoryKVStore::TotalBytes() const {
  uint64_t n = 0;
  for (const auto& [k, v] : data_) n += v.size();
  return n;
}

uint64_t MemoryKVStore::ContextBytes(const std::string& context_id) const {
  uint64_t n = 0;
  for (const auto& [k, v] : data_) {
    if (k.context_id == context_id) n += v.size();
  }
  return n;
}

FileKVStore::FileKVStore(fs::path root) : root_(std::move(root)) {
  fs::create_directories(root_);
}

fs::path FileKVStore::DirFor(const std::string& context_id) const {
  return root_ / SanitizeContextId(context_id);
}

fs::path FileKVStore::PathFor(const ChunkKey& key) const {
  return DirFor(key.context_id) /
         ("chunk" + std::to_string(key.chunk_index) + "_level" +
          std::to_string(key.level_id) + ".cgkv");
}

void FileKVStore::Put(const ChunkKey& key, std::span<const uint8_t> bytes) {
  const fs::path p = PathFor(key);
  fs::create_directories(p.parent_path());
  // Write to a uniquely named temp file, verify the stream after write+close,
  // then rename into place: a short write (ENOSPC, quota, I/O error) throws
  // here instead of surfacing later as a corrupt-bitstream decode error, and
  // a crash mid-Put never leaves a truncated chunk visible under the final
  // name (rename is atomic on POSIX). The unique suffix keeps concurrent
  // writers of the same key from interleaving inside one temp file; byte
  // accounting skips anything that is not a finished ".cgkv" file.
  static std::atomic<uint64_t> tmp_counter{0};
  const fs::path tmp =
      p.parent_path() /
      (p.filename().string() + ".tmp" +
       std::to_string(tmp_counter.fetch_add(1, std::memory_order_relaxed)));
  const auto discard_tmp = [&tmp] {
    std::error_code ec;
    fs::remove(tmp, ec);
  };
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("FileKVStore: cannot open " + tmp.string());
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    out.close();
    if (out.fail()) {
      discard_tmp();
      throw std::runtime_error("FileKVStore: short write to " + p.string());
    }
  }
  std::error_code ec;
  fs::rename(tmp, p, ec);
  if (ec) {
    discard_tmp();
    throw std::runtime_error("FileKVStore: cannot rename " + tmp.string() +
                             " -> " + p.string() + ": " + ec.message());
  }
}

std::optional<std::vector<uint8_t>> FileKVStore::Get(const ChunkKey& key) const {
  const fs::path p = PathFor(key);
  std::ifstream in(p, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) return std::nullopt;
  return bytes;
}

bool FileKVStore::ContainsContext(const std::string& context_id) const {
  return fs::exists(DirFor(context_id));
}

void FileKVStore::EraseContext(const std::string& context_id) {
  fs::remove_all(DirFor(context_id));
}

uint64_t FileKVStore::TotalBytes() const {
  uint64_t n = 0;
  if (!fs::exists(root_)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(root_)) {
    // Count only committed chunks: a ".tmp*" file is an in-flight (or
    // crashed) Put and is never visible through Get.
    if (entry.is_regular_file() && entry.path().extension() == ".cgkv") {
      n += entry.file_size();
    }
  }
  return n;
}

uint64_t FileKVStore::ContextBytes(const std::string& context_id) const {
  uint64_t n = 0;
  const fs::path dir = DirFor(context_id);
  if (!fs::exists(dir)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".cgkv") {
      n += entry.file_size();
    }
  }
  return n;
}

}  // namespace cachegen
