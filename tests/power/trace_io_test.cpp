// Tests for the CSV export of an archived trace store: one row per trace
// in index order, every value formatted shortest-round-trip.
#include "power/trace_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "power/trace_store_reader.h"
#include "util/rng.h"

namespace usca::power {
namespace {

constexpr std::size_t kTraces = 3;
constexpr std::size_t kSamples = 5;

/// The samples of a 3x5 f64 store; chunks of two traces, so the export
/// crosses a chunk boundary and ends on a short chunk.
std::vector<std::vector<double>> sample_rows() {
  util::xoshiro256 rng(9);
  std::vector<std::vector<double>> rows(kTraces);
  for (auto& row : rows) {
    for (std::size_t s = 0; s < kSamples; ++s) {
      row.push_back(rng.next_gaussian());
    }
  }
  return rows;
}

/// Writes sample_rows() to a fresh store and returns its CSV export.
std::string exported_csv(const char* name) {
  const std::string path =
      std::string("/tmp/usca_trace_io_test_") + name + ".trc";
  std::remove(path.c_str());
  trace_store_descriptor desc;
  desc.labels = 1;
  desc.chunk_traces = 2;
  trace_store_writer writer = trace_store_writer::create(path, desc);
  const std::vector<std::vector<double>> rows = sample_rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double label = static_cast<double>(i);
    writer.append({&label, 1}, rows[i]);
  }
  writer.close();

  std::stringstream out;
  {
    const trace_store_reader reader(path);
    export_csv(reader, out);
  }
  std::remove(path.c_str());
  return out.str();
}

TEST(TraceIo, CsvExportShape) {
  std::stringstream out(exported_csv("shape"));
  std::string line;
  int lines = 0;
  while (std::getline(out, line)) {
    ++lines;
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 4);
  }
  EXPECT_EQ(lines, 3);
}

TEST(TraceIo, CsvRowsRoundTripShortestRepresentation) {
  const std::vector<std::vector<double>> rows = sample_rows();
  std::stringstream out(exported_csv("round_trip"));
  // Every exported value parses back to the exact double (std::to_chars
  // shortest-round-trip formatting).
  std::string line;
  std::size_t row = 0;
  while (std::getline(out, line)) {
    ASSERT_LT(row, rows.size());
    std::stringstream cells(line);
    std::string cell;
    std::size_t col = 0;
    while (std::getline(cells, cell, ',')) {
      ASSERT_LT(col, kSamples);
      EXPECT_EQ(std::stod(cell), rows[row][col]);
      ++col;
    }
    EXPECT_EQ(col, kSamples);
    ++row;
  }
  EXPECT_EQ(row, kTraces);
}

} // namespace
} // namespace usca::power
