#include "power/trace_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <ostream>
#include <utility>

#include "power/trace_store_format.h"
#include "power/trace_store_reader.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/telemetry.h"

namespace usca::power {

namespace {

using store_format::chunk_header_bytes;
using store_format::file_header_bytes;

void full_write(int fd, const void* data, std::size_t size,
                const std::string& path) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, bytes, size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw util::analysis_error("write to trace store '" + path +
                                 "' failed");
    }
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// Reads `size` bytes at `offset` of `path`, or throws naming `what`.
void read_range(const std::string& path, std::uint64_t offset, void* data,
                std::size_t size, const char* what) {
  std::ifstream in(path, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (in.gcount() != static_cast<std::streamsize>(size)) {
    throw util::analysis_error("cannot read " + std::string(what) + " of '" +
                               path + "'");
  }
}

} // namespace

std::uint64_t trace_store_descriptor::record_bytes() const noexcept {
  return std::uint64_t{labels} * 8 +
         samples * (scalar == trace_scalar::f32 ? 4 : 8);
}

// ------------------------------------------------------------- writer

trace_store_writer::trace_store_writer(std::string path,
                                       const trace_store_descriptor& desc)
    : path_(std::move(path)), desc_(desc) {
  if (desc_.chunk_traces == 0) {
    throw util::analysis_error("trace store chunk_traces must be positive");
  }
  if (desc_.samples != 0) { // refuse a shape the reader would reject
    store_format::check_shape(desc_, path_);
  }
}

trace_store_writer::trace_store_writer(trace_store_writer&& other) noexcept
    : path_(std::move(other.path_)), desc_(other.desc_),
      fd_(std::exchange(other.fd_, -1)),
      header_written_(other.header_written_), written_(other.written_),
      buffered_(other.buffered_), chunk_buf_(std::move(other.chunk_buf_)) {}

trace_store_writer&
trace_store_writer::operator=(trace_store_writer&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    path_ = std::move(other.path_);
    desc_ = other.desc_;
    fd_ = std::exchange(other.fd_, -1);
    header_written_ = other.header_written_;
    written_ = other.written_;
    buffered_ = other.buffered_;
    chunk_buf_ = std::move(other.chunk_buf_);
  }
  return *this;
}

trace_store_writer::~trace_store_writer() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; an explicit close() reports the error.
  }
}

trace_store_writer
trace_store_writer::create(const std::string& path,
                           const trace_store_descriptor& desc) {
  trace_store_writer writer(path, desc);
  writer.fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (writer.fd_ < 0) {
    throw util::analysis_error("cannot open '" + path + "' for writing");
  }
  return writer;
}

trace_store_writer
trace_store_writer::resume(const std::string& path,
                           const trace_store_descriptor& desc,
                           const store_resume_options& options,
                           store_resume_report* report) {
  if (report != nullptr) {
    *report = store_resume_report{};
  }
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0 || st.st_size == 0) {
    return create(path, desc); // missing or empty file: fresh store
  }
  const auto file_size = static_cast<std::uint64_t>(st.st_size);

  // The reader's salvage walk validates the header and every chunk.  Keep
  // the leading run of chunks that sit back to back from the header with
  // gapless indices — it ends at the first damaged byte, since a damaged
  // chunk is skipped and leaves a gap — and end it after the first short
  // chunk, which is only valid as the last one (the strict reader rejects
  // a short chunk mid-chain).  Chunks the salvage walk keeps after
  // damage are torn tail here.
  trace_store_writer writer(path, desc);
  std::uint64_t offset = file_header_bytes;
  std::uint64_t records = 0;
  chunk_extent last{};
  {
    const trace_store_reader reader(path, store_open_mode::salvage);
    const trace_store_descriptor& file_desc = reader.descriptor();
    const bool mismatch =
        file_desc.scalar != desc.scalar ||
        file_desc.chunk_traces != desc.chunk_traces ||
        file_desc.seed != desc.seed ||
        file_desc.config_hash != desc.config_hash ||
        file_desc.first_index != desc.first_index ||
        file_desc.labels != desc.labels ||
        (desc.samples != 0 && file_desc.samples != desc.samples);
    if (mismatch) {
      throw util::analysis_error(
          "trace store '" + path +
          "' was written by a different campaign configuration; refusing "
          "to resume into it");
    }
    writer.desc_ = file_desc; // adopt the file's (known) sample count
    for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
      const chunk_extent& chunk = reader.chunk_extent_at(c);
      if (chunk.payload_offset != offset + chunk_header_bytes ||
          chunk.first_record != records) {
        break;
      }
      last = chunk;
      records += chunk.count;
      offset = chunk.payload_offset + chunk.count * file_desc.record_bytes();
      if (chunk.count < file_desc.chunk_traces) {
        break;
      }
    }
  }
  // From here on a throw leaves the file's bytes as they are: the header
  // counts as written and nothing is buffered until the truncation has
  // succeeded, so the destructor's close() only releases the descriptor.
  writer.header_written_ = true;
  writer.fd_ = ::open(path.c_str(), O_RDWR);
  if (writer.fd_ < 0) {
    throw util::analysis_error("cannot open '" + path + "' for appending");
  }

  // The bytes past the last intact chunk are a torn tail (killed writer,
  // bit rot) the truncation below destroys.  Preserve them first when
  // asked: `<path>.quarantine` holds the exact cut region, so forensics
  // — and the corruption-taxonomy tests — can inspect what was lost
  // while the store itself is repaired to the reader's invariant.
  if (report != nullptr) {
    report->truncated_bytes = file_size - offset;
  }
  if (options.quarantine_torn_tail && offset < file_size) {
    const std::string qpath = path + ".quarantine";
    std::vector<char> tail(static_cast<std::size_t>(file_size - offset));
    read_range(path, offset, tail.data(), tail.size(), "the torn tail");
    std::ofstream out(qpath, std::ios::binary | std::ios::trunc);
    out.write(tail.data(), static_cast<std::streamsize>(tail.size()));
    out.close();
    if (!out) {
      throw util::analysis_error("cannot write quarantine file '" + qpath +
                                 "'");
    }
    if (report != nullptr) {
      report->quarantine_path = qpath;
    }
  }

  // Re-buffer a trailing short chunk instead of keeping it on disk: its
  // records go back into the pending-chunk buffer and the file is cut at
  // the last full-chunk boundary.  Appends then fill the pending chunk to
  // its nominal size, so the chunk layout — and therefore the bytes — is
  // identical to a single uninterrupted run; a resume that appends
  // nothing flushes the same short chunk back on close().
  std::uint32_t rebuffered = 0;
  if (last.count != 0 && last.count < writer.desc_.chunk_traces) {
    rebuffered = last.count;
    records -= last.count;
    offset = last.payload_offset - chunk_header_bytes;
    writer.chunk_buf_.resize(last.count * writer.desc_.record_bytes());
    read_range(path, last.payload_offset, writer.chunk_buf_.data(),
               writer.chunk_buf_.size(), "the tail chunk");
  }

  if (::ftruncate(writer.fd_, static_cast<off_t>(offset)) != 0 ||
      ::lseek(writer.fd_, 0, SEEK_END) < 0) {
    throw util::analysis_error("cannot truncate '" + path +
                               "' to its last intact chunk");
  }
  writer.written_ = records;
  writer.buffered_ = rebuffered;
  if (report != nullptr) {
    report->intact_records = records + rebuffered;
  }
  return writer;
}

void trace_store_writer::write_header() {
  util::failpoint("store_write_header");
  unsigned char buf[file_header_bytes];
  store_format::encode_file_header(desc_, buf);
  full_write(fd_, buf, sizeof buf, path_);
  header_written_ = true;
}

void trace_store_writer::append(std::span<const double> labels,
                                std::span<const double> samples) {
  if (fd_ < 0) {
    throw util::analysis_error("append to a closed trace store");
  }
  if (desc_.samples == 0 && written_ == 0 && buffered_ == 0) {
    // The first record fixes a deferred sample count, and with it the
    // shape the header will carry.
    trace_store_descriptor first = desc_;
    first.samples = samples.size();
    store_format::check_shape(first, path_);
    desc_ = first;
  }
  if (labels.size() != desc_.labels || samples.size() != desc_.samples) {
    throw util::analysis_error(
        "trace store record shape mismatch (got " +
        std::to_string(labels.size()) + " labels x " +
        std::to_string(samples.size()) + " samples, store holds " +
        std::to_string(desc_.labels) + " x " +
        std::to_string(desc_.samples) + ")");
  }

  const std::size_t old = chunk_buf_.size();
  chunk_buf_.resize(old + desc_.record_bytes());
  unsigned char* out = chunk_buf_.data() + old;
  std::memcpy(out, labels.data(), labels.size() * sizeof(double));
  out += labels.size() * sizeof(double);
  if (desc_.scalar == trace_scalar::f32) {
    for (const double v : samples) {
      const float f = static_cast<float>(v);
      std::memcpy(out, &f, sizeof f);
      out += sizeof f;
    }
  } else {
    std::memcpy(out, samples.data(), samples.size() * sizeof(double));
  }
  if (++buffered_ == desc_.chunk_traces) {
    flush_chunk();
  }
}

void trace_store_writer::flush_chunk() {
  if (buffered_ == 0) {
    return;
  }
  if (!header_written_) {
    write_header();
  }
  unsigned char chdr[chunk_header_bytes];
  store_format::encode_chunk_header(buffered_, desc_.first_index + written_,
                                    chunk_buf_.data(), chunk_buf_.size(),
                                    chdr);
  if (util::failpoint("store_write_chunk")) {
    // `corrupt` action: flip one payload bit AFTER the CRCs above were
    // computed — the chunk lands on disk with exactly the silent bit rot
    // the reader's chunk_payload_crc fault class exists to catch.
    chunk_buf_[chunk_buf_.size() / 2] ^= 0x10;
  }
  full_write(fd_, chdr, sizeof chdr, path_);
  full_write(fd_, chunk_buf_.data(), chunk_buf_.size(), path_);
  static const telem::counter chunks{"store.write.chunks", "chunks", "store"};
  static const telem::counter bytes{"store.write.bytes", "bytes", "store"};
  chunks.add();
  bytes.add(sizeof chdr + chunk_buf_.size());
  written_ += buffered_;
  buffered_ = 0;
  chunk_buf_.clear();
}

void trace_store_writer::close() {
  if (fd_ < 0) {
    return;
  }
  try {
    flush_chunk();
    if (!header_written_ && desc_.samples != 0) {
      write_header(); // zero-record store with a known shape
    }
  } catch (...) {
    // The flush failed (e.g. disk full): still release the descriptor so
    // a caller that handles the error does not leak fds.
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) {
    throw util::analysis_error("closing trace store '" + path_ +
                               "' failed");
  }
}

// ---------------------------------------------------------------- CSV

void export_csv_row(std::span<const double> samples, std::string& line,
                    std::ostream& out) {
  line.clear();
  char buf[32];
  for (std::size_t s = 0; s < samples.size(); ++s) {
    if (s != 0) {
      line.push_back(',');
    }
    const auto [end, ec] =
        std::to_chars(buf, buf + sizeof buf, samples[s]);
    line.append(buf, ec == std::errc() ? end : buf);
  }
  line.push_back('\n');
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
}

} // namespace usca::power
