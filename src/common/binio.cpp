#include "common/binio.hpp"

#include <algorithm>

namespace dms {

BinWriter::BinWriter(const std::string& path, std::uint32_t magic,
                     std::uint32_t version, const char* who)
    : os_(path, std::ios::binary | std::ios::trunc), path_(path), who_(who) {
  check(os_.is_open(), std::string(who_) + ": cannot open " + path_);
  value(magic);
  value(version);
}

void BinWriter::string(const std::string& s) {
  value<std::int64_t>(s.size());
  bytes(s.data(), s.size());
}

void BinWriter::finish() {
  os_.flush();
  check(os_.good(), std::string(who_) + ": write failed for " + path_);
}

void BinWriter::bytes(const void* p, std::size_t n) {
  os_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
}

BinReader::BinReader(const std::string& path, std::uint32_t magic,
                     std::uint32_t version, const char* who)
    : is_(path, std::ios::binary | std::ios::ate), path_(path), who_(who) {
  if (!is_.is_open()) fail("cannot open");
  left_ = std::max<std::int64_t>(is_.tellg(), 0);  // a failed tellg reads as empty
  is_.seekg(0);
  if (value<std::uint32_t>() != magic) fail("bad magic in");
  if (value<std::uint32_t>() != version) fail("unsupported version in");
}

std::string BinReader::string() {
  std::string s(length(1), '\0');
  bytes(s.data(), s.size());
  return s;
}

void BinReader::finish() {
  if (left_ != 0) fail("trailing bytes in");
}

std::size_t BinReader::length(std::size_t elem) {
  const auto n = value<std::int64_t>();
  if (n < 0 || n > left_ / static_cast<std::int64_t>(elem)) {
    fail("length exceeds the bytes left in");
  }
  return static_cast<std::size_t>(n);
}

void BinReader::bytes(void* p, std::size_t n) {
  if (n == 0) return;
  if (static_cast<std::uint64_t>(left_) < n) fail("truncated");
  is_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  if (!is_) fail("truncated");
  left_ -= static_cast<std::int64_t>(n);
}

void BinReader::fail(const char* what) const {
  throw DmsError(std::string(who_) + ": " + what + " " + path_);
}

}  // namespace dms
