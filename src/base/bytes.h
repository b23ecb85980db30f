// Little bounded byte-stream reader/writer used by the pager catalog and the
// binary serialization module. Writes are infallible (append to a vector);
// reads are bounds-checked and fail with kOutOfRange instead of reading past
// the end, so corrupt or truncated input is reported, never UB.

#ifndef CHASE_BASE_BYTES_H_
#define CHASE_BASE_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace chase {

class ByteWriter {
 public:
  void PutU8(uint8_t value) { bytes_.push_back(value); }
  void PutU32(uint32_t value) { PutRaw(&value, sizeof(value)); }
  void PutU64(uint64_t value) { PutRaw(&value, sizeof(value)); }

  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  void PutU32Span(std::span<const uint32_t> values) {
    PutU64(values.size());
    PutRaw(values.data(), values.size() * sizeof(uint32_t));
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  void PutRaw(const void* data, size_t size) {
    if (size == 0) return;  // empty spans/strings may carry data() == null
    const uint8_t* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }

  std::vector<uint8_t> bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] StatusOr<uint8_t> GetU8() {
    CHASE_RETURN_IF_ERROR(Need(1));
    return bytes_[pos_++];
  }
  [[nodiscard]] StatusOr<uint32_t> GetU32() {
    CHASE_RETURN_IF_ERROR(Need(sizeof(uint32_t)));
    uint32_t value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(value));
    pos_ += sizeof(value);
    return value;
  }
  [[nodiscard]] StatusOr<uint64_t> GetU64() {
    CHASE_RETURN_IF_ERROR(Need(sizeof(uint64_t)));
    uint64_t value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(value));
    pos_ += sizeof(value);
    return value;
  }

  [[nodiscard]] StatusOr<std::string> GetString() {
    CHASE_ASSIGN_OR_RETURN(uint32_t size, GetU32());
    CHASE_RETURN_IF_ERROR(Need(size));
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), size);
    pos_ += size;
    return s;
  }

  // A PutU32Span array as its raw bytes, without copying. The bytes sit
  // at whatever offset the stream put them, so callers memcpy them out;
  // they are never read in place as uint32_t.
  [[nodiscard]] StatusOr<std::span<const uint8_t>> GetU32SpanBytes() {
    CHASE_ASSIGN_OR_RETURN(uint64_t count, GetU64());
    // Validate against the remaining length before computing count * 4,
    // which could otherwise wrap for adversarial length prefixes.
    if (count > remaining() / sizeof(uint32_t)) {
      return OutOfRangeError("byte stream truncated");
    }
    const std::span<const uint8_t> raw =
        bytes_.subspan(pos_, count * sizeof(uint32_t));
    pos_ += raw.size();
    return raw;
  }

  [[nodiscard]] StatusOr<std::vector<uint32_t>> GetU32Span() {
    CHASE_ASSIGN_OR_RETURN(std::span<const uint8_t> raw, GetU32SpanBytes());
    std::vector<uint32_t> values(raw.size() / sizeof(uint32_t));
    if (!raw.empty()) {
      // The guard matters under UBSan: an empty vector's data() is null,
      // and memcpy's pointer arguments are declared nonnull even at n=0.
      std::memcpy(values.data(), raw.data(), raw.size());
    }
    return values;
  }

  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  [[nodiscard]] Status Need(uint64_t size) {
    if (pos_ + size > bytes_.size() || pos_ + size < pos_) {
      return OutOfRangeError("byte stream truncated");
    }
    return OkStatus();
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

}  // namespace chase

#endif  // CHASE_BASE_BYTES_H_
