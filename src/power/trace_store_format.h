// The trace store's on-disk layout (documented in power/trace_io.h),
// defined once for the writer (power/trace_io.cpp) and the reader
// (power/trace_store_reader.cpp): the constants, the little-endian
// field codec, the header codecs and the record-shape rule.
#ifndef USCA_POWER_TRACE_STORE_FORMAT_H
#define USCA_POWER_TRACE_STORE_FORMAT_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "power/trace_store_reader.h"
#include "util/crc32.h"
#include "util/error.h"

namespace usca::power::store_format {

static_assert(std::endian::native == std::endian::little,
              "the trace store is defined little endian and this "
              "implementation serializes by memcpy");

inline constexpr char magic[8] = {'U', 'S', 'C', 'A', 'T', 'R', 'C', '2'};
inline constexpr std::uint32_t version = 2;
inline constexpr std::uint32_t chunk_magic = 0x4b4e4843; // "CHNK"
inline constexpr std::uint64_t file_header_bytes = 64;
inline constexpr std::uint64_t chunk_header_bytes = 32;

template <typename T>
void put(unsigned char* buf, std::uint64_t offset, T value) noexcept {
  std::memcpy(buf + offset, &value, sizeof value);
}

template <typename T>
T get(const unsigned char* buf, std::uint64_t offset) noexcept {
  T value{};
  std::memcpy(&value, buf + offset, sizeof value);
  return value;
}

/// The one formatting path for validation failures: every throw names
/// the file, the byte offset of the damage, the chunk slot (no_chunk =
/// file header) and the failure class, so a failed open is actionable
/// without a hexdump.
inline constexpr std::size_t no_chunk = static_cast<std::size_t>(-1);
[[noreturn]] inline void reject(const std::string& path, store_fault fault,
                                std::uint64_t byte_offset, std::size_t chunk,
                                const std::string& what) {
  std::string msg = "trace store '" + path + "': " + what + " [fault " +
                    store_fault_name(fault) + ", byte offset " +
                    std::to_string(byte_offset);
  if (chunk != no_chunk) {
    msg += ", chunk " + std::to_string(chunk);
  }
  throw util::analysis_error(msg + "]");
}

/// The record-shape rule: the writer refuses to write, and the reader to
/// open, a store whose shape fails it (file_bad_shape).  Bounding the
/// sample count keeps every record/payload product below 2^36, so no
/// arithmetic on a forged header can wrap.
inline void check_shape(const trace_store_descriptor& desc,
                        const std::string& path) {
  if (static_cast<std::uint32_t>(desc.scalar) >
      static_cast<std::uint32_t>(trace_scalar::f32)) {
    reject(path, store_fault::file_bad_shape, 12, no_chunk,
           "unknown sample scalar kind");
  }
  if (desc.samples > (1ULL << 32)) {
    reject(path, store_fault::file_bad_shape, 16, no_chunk,
           "implausible sample count");
  }
  if (desc.chunk_traces == 0 || desc.record_bytes() == 0) {
    reject(path, store_fault::file_bad_shape, 16, no_chunk,
           "degenerate record shape");
  }
}

/// Serializes the 64-byte file header (including its CRC).
inline void encode_file_header(const trace_store_descriptor& desc,
                               unsigned char (&buf)[file_header_bytes]) {
  std::memset(buf, 0, sizeof buf);
  std::memcpy(buf, magic, sizeof magic);
  put(buf, 8, version);
  put(buf, 12, static_cast<std::uint32_t>(desc.scalar));
  put(buf, 16, desc.samples);
  put(buf, 24, desc.labels);
  put(buf, 28, desc.chunk_traces);
  put(buf, 32, desc.seed);
  put(buf, 40, desc.config_hash);
  put(buf, 48, desc.first_index);
  put(buf, 56, std::uint32_t{0}); // reserved
  put(buf, 60, util::crc32(buf, 60));
}

/// Validates and decodes the 64-byte file header at `buf`; a fault
/// throws through reject().
inline trace_store_descriptor decode_file_header(const unsigned char* buf,
                                                 const std::string& path) {
  if (std::memcmp(buf, magic, sizeof magic) != 0) {
    reject(path, store_fault::file_bad_magic, 0, no_chunk,
           "bad magic (not a usca trace store)");
  }
  if (get<std::uint32_t>(buf, 8) != version) {
    reject(path, store_fault::file_bad_version, 8, no_chunk,
           "unsupported version " +
               std::to_string(get<std::uint32_t>(buf, 8)));
  }
  if (get<std::uint32_t>(buf, 60) != util::crc32(buf, 60)) {
    reject(path, store_fault::file_header_crc, 0, no_chunk,
           "header checksum mismatch");
  }
  trace_store_descriptor desc;
  desc.scalar = static_cast<trace_scalar>(get<std::uint32_t>(buf, 12));
  desc.samples = get<std::uint64_t>(buf, 16);
  desc.labels = get<std::uint32_t>(buf, 24);
  desc.chunk_traces = get<std::uint32_t>(buf, 28);
  desc.seed = get<std::uint64_t>(buf, 32);
  desc.config_hash = get<std::uint64_t>(buf, 40);
  desc.first_index = get<std::uint64_t>(buf, 48);
  check_shape(desc, path);
  return desc;
}

/// The fields of a 32-byte chunk header as stored (not validated).
struct chunk_header {
  std::uint32_t magic;
  std::uint32_t count;
  std::uint64_t first_index;
  std::uint64_t payload_bytes;
  std::uint32_t payload_crc;
  std::uint32_t header_crc; ///< CRC-32 of the preceding 28 bytes
};

inline chunk_header decode_chunk_header(const unsigned char* buf) noexcept {
  return {get<std::uint32_t>(buf, 0),  get<std::uint32_t>(buf, 4),
          get<std::uint64_t>(buf, 8),  get<std::uint64_t>(buf, 16),
          get<std::uint32_t>(buf, 24), get<std::uint32_t>(buf, 28)};
}

/// Serializes a 32-byte chunk header (including its CRC) for `count`
/// records starting at global index `first_index`.
inline void encode_chunk_header(std::uint32_t count,
                                std::uint64_t first_index,
                                const unsigned char* payload,
                                std::uint64_t payload_bytes,
                                unsigned char (&buf)[chunk_header_bytes]) {
  std::memset(buf, 0, sizeof buf);
  put(buf, 0, chunk_magic);
  put(buf, 4, count);
  put(buf, 8, first_index);
  put(buf, 16, payload_bytes);
  put(buf, 24, util::crc32(payload, payload_bytes));
  put(buf, 28, util::crc32(buf, 28));
}

} // namespace usca::power::store_format

#endif // USCA_POWER_TRACE_STORE_FORMAT_H
