// Mutation fuzz of the two on-disk formats' parsers: the trace store
// (its reader in strict and salvage mode, and trace_store_writer::resume,
// which walks with the reader) and the fabric manifest
// (core::parse_manifest and the coordinator's reload on top of it).
// Real bytes from a small fabric run are bit-flipped, truncated, spliced
// chunk- or line-wise, and field-forged with their checksums fixed,
// under a fixed seed.  Every parser must either accept or throw
// util::analysis_error, and whatever it accepts must obey the store's
// contracts: salvage refuses only a damaged file header, and resume()
// keeps an exact byte prefix holding a prefix of the original records.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign_fabric.h"
#include "power/trace_io.h"
#include "power/trace_store_reader.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/rng.h"

namespace usca {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t k_labels = 2;
constexpr std::size_t k_samples = 5;
constexpr std::uint32_t k_chunk_traces = 8;
constexpr std::size_t k_lease = 29; // 3 full chunks + a 5-record tail
constexpr std::size_t k_header = 64;
constexpr std::size_t k_chunk_header = 32;
constexpr std::size_t k_record = (k_labels + k_samples) * sizeof(double);
constexpr int k_rounds = 300;

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Runs `fn`: true when it returned, false when it threw
/// util::analysis_error.  Any other exception escapes and fails the test.
template <typename Fn> bool accepts(Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const util::analysis_error&) {
    return false;
  }
}

/// A store's records relative to its first index, labels then samples.
std::vector<std::vector<double>>
records_of(const power::trace_store_reader& reader) {
  std::vector<std::vector<double>> rows;
  reader.stream([&rows](std::size_t, std::span<const double> labels,
                        std::span<const double> samples) {
    rows.emplace_back(labels.begin(), labels.end());
    rows.back().insert(rows.back().end(), samples.begin(), samples.end());
  });
  return rows;
}

std::size_t pick(util::xoshiro256& rng, std::size_t n) {
  return n == 0 ? 0 : rng.next_u32() % n;
}

/// A value for a forged field: small counts, the format's boundaries and
/// arbitrary bits.
std::uint64_t forged_value(util::xoshiro256& rng) {
  constexpr std::uint64_t edges[] = {0,        1,          k_chunk_traces,
                                     k_lease,  1ULL << 32, (1ULL << 32) + 1,
                                     ~0ULL,    ~0ULL - 7,  8 * k_record};
  switch (pick(rng, 3)) {
  case 0:
    return pick(rng, 17);
  case 1:
    return edges[pick(rng, std::size(edges))];
  default:
    return (std::uint64_t{rng.next_u32()} << 32) | rng.next_u32();
  }
}

/// The store split into its file header and whole chunks (the geometry
/// of an intact k_lease-record shard).
std::vector<std::string> split_chunks(const std::string& bytes) {
  std::vector<std::string> parts{bytes.substr(0, k_header)};
  for (std::size_t at = k_header, left = k_lease; left > 0;) {
    const std::size_t count = std::min<std::size_t>(left, k_chunk_traces);
    const std::size_t extent = k_chunk_header + count * k_record;
    parts.push_back(bytes.substr(at, extent));
    at += extent;
    left -= count;
  }
  return parts;
}

std::string mutate_store(std::string bytes, util::xoshiro256& rng) {
  switch (pick(rng, 5)) {
  case 0: // bit rot
    for (std::size_t k = 1 + pick(rng, 3); k > 0; --k) {
      bytes[pick(rng, bytes.size())] ^= static_cast<char>(1 << pick(rng, 8));
    }
    break;
  case 1: // killed writer or short copy
    bytes.resize(pick(rng, bytes.size()));
    break;
  case 2: { // chunks duplicated, dropped or swapped
    std::vector<std::string> parts = split_chunks(bytes);
    const std::size_t a = 1 + pick(rng, parts.size() - 1);
    const std::size_t b = 1 + pick(rng, parts.size() - 1);
    switch (pick(rng, 3)) {
    case 0:
      parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(b), parts[a]);
      break;
    case 1:
      parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(a));
      break;
    default:
      std::swap(parts[a], parts[b]);
    }
    bytes.clear();
    for (const std::string& part : parts) {
      bytes += part;
    }
    break;
  }
  case 3: { // one header field forged, its checksum recomputed
    const std::vector<std::string> parts = split_chunks(bytes);
    const std::size_t part = pick(rng, parts.size());
    std::size_t start = 0;
    for (std::size_t p = 0; p < part; ++p) {
      start += parts[p].size();
    }
    const std::uint64_t value = forged_value(rng);
    std::size_t crc_len;
    if (part == 0) { // scalar, samples, labels, chunk_traces, first_index
      constexpr std::pair<std::size_t, std::size_t> fields[] = {
          {12, 4}, {16, 8}, {24, 4}, {28, 4}, {48, 8}};
      const auto [at, width] = fields[pick(rng, std::size(fields))];
      std::memcpy(bytes.data() + start + at, &value, width);
      crc_len = 60;
    } else { // count, first_index, payload_bytes
      constexpr std::pair<std::size_t, std::size_t> fields[] = {
          {4, 4}, {8, 8}, {16, 8}};
      const auto [at, width] = fields[pick(rng, std::size(fields))];
      std::memcpy(bytes.data() + start + at, &value, width);
      crc_len = 28;
    }
    const std::uint32_t crc = util::crc32(bytes.data() + start, crc_len);
    std::memcpy(bytes.data() + start + crc_len, &crc, sizeof crc);
    break;
  }
  default: { // garbage overwrite or appended torn bytes
    const std::size_t len = 1 + pick(rng, 64);
    std::string garbage(len, '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.next_u8());
    }
    if (pick(rng, 2) == 0) {
      bytes += garbage;
    } else {
      bytes.replace(pick(rng, bytes.size()), len, garbage);
    }
  }
  }
  return bytes;
}

std::string mutate_manifest(std::string text, util::xoshiro256& rng) {
  switch (pick(rng, 5)) {
  case 0:
    for (std::size_t k = 1 + pick(rng, 3); k > 0; --k) {
      text[pick(rng, text.size())] ^= static_cast<char>(1 << pick(rng, 8));
    }
    break;
  case 1:
    text.resize(pick(rng, text.size()));
    break;
  case 2: { // lines duplicated, dropped or swapped
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
      lines.push_back(line);
    }
    const std::size_t a = pick(rng, lines.size());
    const std::size_t b = pick(rng, lines.size());
    switch (pick(rng, 3)) {
    case 0:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(b), lines[a]);
      break;
    case 1:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(a));
      break;
    default:
      std::swap(lines[a], lines[b]);
    }
    text.clear();
    for (const std::string& line : lines) {
      text += line + "\n";
    }
    break;
  }
  case 3: { // one lease's state rewritten, as a coordinator death leaves it
    static const char* const states[] = {"pending", "leased", "done"};
    const std::size_t line = text.find("\nlease ", pick(rng, text.size()));
    std::size_t at = line;
    for (int field = 0; field < 5 && at != std::string::npos; ++field) {
      at = text.find(' ', at + 1);
    }
    if (at != std::string::npos) {
      const std::size_t end = text.find(' ', at + 1);
      text.replace(at + 1, end - at - 1, states[pick(rng, 3)]);
    }
    break;
  }
  default: { // one token replaced from the format's own vocabulary
    static const char* const vocabulary[] = {
        "pending", "leased", "done",  "lease",
        "seed",    "",       "-1",    "18446744073709551616",
        "7",       "0",      "x y z", "usca-fabric-manifest"};
    std::vector<std::pair<std::size_t, std::size_t>> tokens;
    for (std::size_t i = 0; i < text.size();) {
      const std::size_t start = text.find_first_not_of(" \n", i);
      if (start == std::string::npos) {
        break;
      }
      const std::size_t end = std::min(text.find_first_of(" \n", start),
                                       text.size());
      tokens.emplace_back(start, end - start);
      i = end;
    }
    const auto [at, len] = tokens[pick(rng, tokens.size())];
    text.replace(at, len, vocabulary[pick(rng, std::size(vocabulary))]);
  }
  }
  return text;
}

class ParserFuzz : public ::testing::Test {
protected:
  void SetUp() override {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    config_.manifest_path = dir_ + "/manifest";
    config_.shard_dir = dir_ + "/shards";
    config_.traces = 2 * k_lease;
    config_.lease_traces = k_lease;
    config_.seed = 0xf022;
    config_.config_hash = 0xc0ffee;
    config_.poll_interval = std::chrono::milliseconds(1);
    // A real fabric run: every shard is written by the store writer and
    // the manifest by the coordinator's journal.
    core::campaign_fabric fabric(config_);
    core::thread_worker_runner runner([this](const core::fabric_lease& l) {
      power::trace_store_writer writer =
          power::trace_store_writer::create(l.shard_path, descriptor(l));
      util::xoshiro256 rng(l.first_index);
      std::vector<double> labels(k_labels), samples(k_samples);
      for (std::size_t i = 0; i < l.traces; ++i) {
        for (double& v : labels) {
          v = rng.next_u8();
        }
        for (double& v : samples) {
          v = rng.next_gaussian();
        }
        writer.append(labels, samples);
      }
      writer.close();
    });
    fabric.run(runner);
    leases_ = fabric.leases();
  }

  void TearDown() override { fs::remove_all(dir_); }

  power::trace_store_descriptor descriptor(const core::fabric_lease& l) const {
    power::trace_store_descriptor desc;
    desc.samples = k_samples;
    desc.labels = k_labels;
    desc.chunk_traces = k_chunk_traces;
    desc.seed = config_.seed;
    desc.config_hash = config_.config_hash;
    desc.first_index = l.first_index;
    return desc;
  }

  std::string dir_ = "/tmp/usca_trace_store_fabric_fuzz_test";
  core::fabric_config config_;
  std::vector<core::fabric_lease> leases_;
};

void expect_prefix(const std::vector<std::vector<double>>& got,
                   const std::vector<std::vector<double>>& original) {
  ASSERT_LE(got.size(), original.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], original[i]) << "record " << i;
  }
}

TEST_F(ParserFuzz, MutatedStoresAreAcceptedOrRefusedCleanly) {
  util::xoshiro256 rng(0x57042e);
  const std::string path = dir_ + "/mutated.trc";
  std::size_t strict_opens = 0, resumes = 0, cut = 0;
  for (int round = 0; round < k_rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const core::fabric_lease& lease = leases_[pick(rng, leases_.size())];
    const std::string original = file_bytes(lease.shard_path);
    ASSERT_EQ(split_chunks(original).back().size(),
              k_chunk_header + (k_lease % k_chunk_traces) * k_record);
    const auto original_records =
        records_of(power::trace_store_reader(lease.shard_path));
    const std::string mutated = mutate_store(original, rng);
    write_bytes(path, mutated);

    // Strict: a verified archive or analysis_error, and a verified
    // archive serves a prefix of the records that were written.
    strict_opens += accepts([&] {
      expect_prefix(records_of(power::trace_store_reader(path)),
                    original_records);
    });

    // Salvage: only a damaged file header is fatal.
    try {
      const power::trace_store_reader salvaged(
          path, power::store_open_mode::salvage);
    } catch (const util::analysis_error& e) {
      EXPECT_NE(std::string(e.what()).find("[fault file_"),
                std::string::npos)
          << e.what();
      EXPECT_TRUE(mutated.size() < k_header ||
                  mutated.compare(0, k_header, original, 0, k_header) != 0)
          << "salvage refused a store with an intact file header: "
          << e.what();
    }

    // resume(): refuses without touching a byte, or keeps an exact byte
    // prefix (the rest quarantined) that strict-opens after close() and
    // holds a prefix of the original records.
    power::store_resume_report report;
    const bool resumed = accepts([&] {
      power::trace_store_writer writer = power::trace_store_writer::resume(
          path, descriptor(lease), power::store_resume_options{true},
          &report);
      writer.close();
    });
    const std::string repaired = file_bytes(path);
    if (!resumed) {
      EXPECT_EQ(repaired, mutated) << "a refused resume altered the file";
      continue;
    }
    ++resumes;
    if (!mutated.empty()) { // an empty file resumes as a fresh store
      ASSERT_LE(repaired.size(), mutated.size());
      EXPECT_EQ(repaired, mutated.substr(0, repaired.size()));
      EXPECT_EQ(report.truncated_bytes, mutated.size() - repaired.size());
      if (report.truncated_bytes != 0) {
        ++cut;
        EXPECT_EQ(file_bytes(report.quarantine_path),
                  mutated.substr(repaired.size()));
      }
    }
    const power::trace_store_reader reader(path);
    EXPECT_EQ(reader.traces(), report.intact_records);
    expect_prefix(records_of(reader), original_records);
  }
  // The corpus reached every outcome.
  EXPECT_GT(strict_opens, 0u);
  EXPECT_LT(strict_opens, static_cast<std::size_t>(k_rounds));
  EXPECT_GT(cut, 0u);
  EXPECT_LT(resumes, static_cast<std::size_t>(k_rounds));
}

TEST_F(ParserFuzz, MutatedManifestsAreAcceptedOrRefusedCleanly) {
  const std::string original = file_bytes(config_.manifest_path);
  {
    const core::fabric_manifest manifest =
        core::parse_manifest(config_.manifest_path);
    ASSERT_EQ(manifest.leases.size(), 2u);
    EXPECT_EQ(manifest.leases[1].state, core::lease_state::done);
    EXPECT_EQ(manifest.config.size(), 5u);
  }
  util::xoshiro256 rng(0x3a41f);
  std::size_t parsed = 0, loaded = 0;
  for (int round = 0; round < k_rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::string mutated = mutate_manifest(original, rng);
    write_bytes(config_.manifest_path, mutated);
    parsed += accepts([&] {
      const core::fabric_manifest manifest =
          core::parse_manifest(config_.manifest_path);
      for (const core::fabric_lease& lease : manifest.leases) {
        EXPECT_FALSE(lease.shard_path.empty());
      }
    });
    // The coordinator's reload is the same parser plus the campaign
    // binding and split checks; an in-flight lease reloads as pending.
    loaded += accepts([&] {
      const core::campaign_fabric fabric(config_);
      ASSERT_EQ(fabric.leases().size(), 2u);
      for (const core::fabric_lease& lease : fabric.leases()) {
        EXPECT_NE(lease.state, core::lease_state::leased);
      }
    });
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(parsed, loaded);
  EXPECT_LT(parsed, static_cast<std::size_t>(k_rounds));
}

} // namespace
} // namespace usca
