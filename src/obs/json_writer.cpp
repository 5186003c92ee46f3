#include "obs/json_writer.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace cachegen::obs {

void JsonWriter::Prefix() {
  if (has_item_.empty()) return;  // root value
  if (has_item_.back()) out_ += ",";
  has_item_.back() = true;
  out_ += "\n";
  out_.append(2 * has_item_.size(), ' ');
}

void JsonWriter::Key(std::string_view key) {
  Prefix();
  out_ += "\"";
  out_ += Escape(key);
  out_ += "\": ";
}

JsonWriter& JsonWriter::BeginObject() {
  Prefix();
  out_ += "{";
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::BeginObject(std::string_view key) {
  Key(key);
  out_ += "{";
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  const bool had_items = !has_item_.empty() && has_item_.back();
  has_item_.pop_back();
  if (had_items) {
    out_ += "\n";
    out_.append(2 * has_item_.size(), ' ');
  }
  out_ += "}";
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Prefix();
  out_ += "[";
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::BeginArray(std::string_view key) {
  Key(key);
  out_ += "[";
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  const bool had_items = !has_item_.empty() && has_item_.back();
  has_item_.pop_back();
  if (had_items) {
    out_ += "\n";
    out_.append(2 * has_item_.size(), ' ');
  }
  out_ += "]";
  return *this;
}

JsonWriter& JsonWriter::Field(std::string_view key, std::string_view value) {
  Key(key);
  out_ += "\"";
  out_ += Escape(value);
  out_ += "\"";
  return *this;
}

JsonWriter& JsonWriter::Field(std::string_view key, const char* value) {
  return Field(key, std::string_view(value));
}

JsonWriter& JsonWriter::Field(std::string_view key, bool value) {
  Key(key);
  out_ += value ? "true" : "false";
  return *this;
}

void JsonWriter::AppendDouble(double value, int decimals) {
  if (!std::isfinite(value)) {
    out_ += "null";
    return;
  }
  char buf[64];
  if (decimals >= 0) {
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  } else {
    // Shortest representation that round-trips; %.17g is always enough for
    // an IEEE double and snprintf is locale-independent for the C locale
    // digits we care about ('.' is forced below just in case).
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  for (char* p = buf; *p; ++p) {
    if (*p == ',') *p = '.';  // paranoid: a configured locale's decimal comma
  }
  out_ += buf;
}

JsonWriter& JsonWriter::Field(std::string_view key, double value, int decimals) {
  Key(key);
  AppendDouble(value, decimals);
  return *this;
}

JsonWriter& JsonWriter::Field(std::string_view key, uint64_t value) {
  Key(key);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Field(std::string_view key, int64_t value) {
  Key(key);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Field(std::string_view key, int value) {
  return Field(key, static_cast<int64_t>(value));
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  Prefix();
  out_ += "\"";
  out_ += Escape(value);
  out_ += "\"";
  return *this;
}

JsonWriter& JsonWriter::Value(double value, int decimals) {
  Prefix();
  AppendDouble(value, decimals);
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t value) {
  Prefix();
  out_ += std::to_string(value);
  return *this;
}

bool JsonWriter::WriteFile(const std::filesystem::path& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << out_ << "\n";
  f.flush();
  return !f.fail();
}

std::string JsonWriter::Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace cachegen::obs
