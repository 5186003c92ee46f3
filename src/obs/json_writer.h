// JsonWriter: the one JSON emitter for every machine-readable artifact the
// repo writes — bench result files (BENCH_*.json), the metrics snapshot, the
// Chrome/Perfetto trace export, and the cluster-summary dump. Before this
// existed each bench hand-rolled fprintf JSON (three slightly different
// copies, none of which escaped strings); now they share one writer with
// correct string escaping and locale-independent number formatting.
//
// Shape: a forward-only builder over an in-memory string. Keys and values
// are appended in document order; the writer tracks the container stack and
// inserts commas/indentation, so call sites read like the document:
//
//   JsonWriter w;
//   w.BeginObject();
//   w.Field("bench", "tiered_storage");
//   w.BeginArray("results");
//   for (...) { w.BeginObject(); w.Field("mode", m); ...; w.EndObject(); }
//   w.EndArray();
//   w.EndObject();
//   w.WriteFile(path);
//
// Doubles are emitted with up to 17 significant digits by default (value
// round-trips exactly) or a fixed decimal count when the caller passes one;
// non-finite doubles become null (JSON has no NaN/Inf).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace cachegen::obs {

class JsonWriter {
 public:
  JsonWriter() = default;

  // Containers. The keyed overloads are for members of an object; the
  // unkeyed ones for the root value and for array elements.
  JsonWriter& BeginObject();
  JsonWriter& BeginObject(std::string_view key);
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& BeginArray(std::string_view key);
  JsonWriter& EndArray();

  // Object members.
  JsonWriter& Field(std::string_view key, std::string_view value);
  JsonWriter& Field(std::string_view key, const char* value);
  JsonWriter& Field(std::string_view key, bool value);
  JsonWriter& Field(std::string_view key, double value, int decimals = -1);
  JsonWriter& Field(std::string_view key, uint64_t value);
  JsonWriter& Field(std::string_view key, int64_t value);
  JsonWriter& Field(std::string_view key, int value);

  // Array elements.
  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(double value, int decimals = -1);
  JsonWriter& Value(uint64_t value);

  // The document built so far. Valid JSON once every container is closed.
  const std::string& str() const { return out_; }

  // Write the document to `path` (truncating). Returns false on I/O error.
  bool WriteFile(const std::filesystem::path& path) const;

  static std::string Escape(std::string_view s);

 private:
  void Prefix();            // comma/newline/indent before the next item
  void Key(std::string_view key);
  void AppendDouble(double value, int decimals);

  std::string out_;
  // One entry per open container: true once it has at least one item (so the
  // next item needs a leading comma).
  std::vector<bool> has_item_;
};

}  // namespace cachegen::obs
