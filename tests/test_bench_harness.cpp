// The bench harness (bench/harness.hpp) shared by every gated benchmark:
// option parsing, the BENCH_*.json line format, the baseline reader and
// the mbps regression gate.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace gcmpi::bench;

const Schema kSchema{"gcmpi-bench-test-v1", {{"mbps", "MB per second"}, {"chunks", "count"}}};

Row sample_row() {
  Row row{"pipeline/mpc/4M/auto"};
  row.text("codec", "mpc")
      .count("bytes", 4u << 20)
      .fixed("latency_us", 1234.56789, 3)
      .fixed("mbps", 3397.46, 1)
      .count("chunks", 8);
  return row;
}

Row mbps_row(const std::string& name, double mbps) {
  Row row{name};
  row.fixed("mbps", mbps, 1);
  return row;
}

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

void write_file(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream f(path);
  write_json(f, kSchema, false, rows);
}

TEST(BenchHarness, WriterEmitsOneResultPerLine) {
  std::ostringstream os;
  write_json(os, kSchema, true, {sample_row(), mbps_row("second", 12.0)});
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"schema\": \"gcmpi-bench-test-v1\",\n"
            "  \"quick\": true,\n"
            "  \"units\": {\"mbps\": \"MB per second\", \"chunks\": \"count\"},\n"
            "  \"results\": [\n"
            "    {\"name\": \"pipeline/mpc/4M/auto\", \"codec\": \"mpc\", \"bytes\": 4194304, "
            "\"latency_us\": 1234.568, \"mbps\": 3397.5, \"chunks\": 8},\n"
            "    {\"name\": \"second\", \"mbps\": 12.0}\n"
            "  ]\n"
            "}\n");
}

TEST(BenchHarness, ReaderReadsBackWhatTheWriterWrote) {
  const std::string path = temp_path("bench_harness_roundtrip.json");
  write_file(path, {sample_row(), mbps_row("second", 0.04)});
  const auto base = read_baseline(path);
  ASSERT_TRUE(base.has_value());
  ASSERT_EQ(base->size(), 2u);
  EXPECT_EQ((*base)[0].first, "pipeline/mpc/4M/auto");
  EXPECT_DOUBLE_EQ((*base)[0].second, 3397.5);
  EXPECT_EQ((*base)[1].first, "second");
  EXPECT_DOUBLE_EQ((*base)[1].second, 0.0);
  // A run gated against its own output passes: the gate compares the
  // run's full-precision mbps with the baseline's rounded one, so it needs
  // the 0.05 MB/s rounding slack that any real threshold gives.
  EXPECT_EQ(compare_baseline({sample_row()}, *base, 0.02), 0);
}

TEST(BenchHarness, RowAtTheThresholdPassesAndJustBelowFails) {
  const Baseline base = {{"r", 1000.0}};
  const double limit = 1000.0 * (1.0 - 0.02);
  EXPECT_EQ(compare_baseline({mbps_row("r", limit)}, base, 0.02), 0);
  EXPECT_EQ(compare_baseline({mbps_row("r", std::nextafter(limit, 0.0))}, base, 0.02), 1);
  EXPECT_EQ(compare_baseline({mbps_row("r", 2000.0)}, base, 0.02), 0);
}

TEST(BenchHarness, RowWithoutABaselineRowFails) {
  const Baseline base = {{"kept", 10.0}};
  EXPECT_EQ(compare_baseline({mbps_row("kept", 10.0), mbps_row("renamed", 10.0)}, base, 0.02),
            1);
  EXPECT_EQ(compare_baseline({mbps_row("kept", 10.0)}, Baseline{}, 0.02), 1);
}

TEST(BenchHarness, UnreadableBaselineIsAnError) {
  const std::string missing = temp_path("no_such_dir/BENCH_missing.json");
  EXPECT_FALSE(read_baseline(missing).has_value());

  Options opt;
  opt.out = temp_path("bench_harness_out.json");
  opt.baseline = missing;
  opt.threshold = 0.02;
  EXPECT_EQ(finish(opt, kSchema, {sample_row()}, 0), 2);
}

TEST(BenchHarness, FinishReturnsTheExitStatus) {
  const std::string base = temp_path("bench_harness_base.json");
  write_file(base, {sample_row()});
  Options opt;
  opt.out = temp_path("bench_harness_out.json");
  opt.threshold = 0.02;
  EXPECT_EQ(finish(opt, kSchema, {sample_row()}, 0), 0);
  EXPECT_EQ(finish(opt, kSchema, {sample_row()}, 1), 1);
  opt.baseline = base;
  EXPECT_EQ(finish(opt, kSchema, {sample_row()}, 0), 0);
  EXPECT_EQ(finish(opt, kSchema, {mbps_row("not-in-base", 1.0)}, 0), 1);
  opt.out = temp_path("no_such_dir/out.json");
  EXPECT_EQ(finish(opt, kSchema, {sample_row()}, 0), 2);
}

TEST(BenchHarness, GateCountsOnlyFailures) {
  EXPECT_EQ(gate(true, "never printed %d", 1), 0);
  EXPECT_EQ(gate(false, "bar missed by %.1f%%", 2.5), 1);
}

TEST(BenchHarness, NumberReadsCountsAndFixedFields) {
  const Row row = sample_row();
  EXPECT_DOUBLE_EQ(row.number("latency_us"), 1234.56789);
  EXPECT_DOUBLE_EQ(row.number("chunks"), 8.0);
  EXPECT_THROW((void)row.number("codec"), std::out_of_range);
  EXPECT_THROW((void)row.number("absent"), std::out_of_range);
}

TEST(BenchHarness, ParsesTheFourFlags) {
  char prog[] = "bench", quick[] = "--quick", out[] = "--out", out_v[] = "o.json",
       base[] = "--baseline", base_v[] = "b.json", thr[] = "--threshold", thr_v[] = "0.25";
  char* full[] = {prog, quick, out, out_v, base, base_v, thr, thr_v};
  const auto opt = parse_options(8, full, "bench", "BENCH_default.json", 0.02);
  ASSERT_TRUE(opt.has_value());
  EXPECT_TRUE(opt->quick);
  EXPECT_EQ(opt->out, "o.json");
  EXPECT_EQ(opt->baseline, "b.json");
  EXPECT_DOUBLE_EQ(opt->threshold, 0.25);

  const auto defaults = parse_options(1, full, "bench", "BENCH_default.json", 0.02);
  ASSERT_TRUE(defaults.has_value());
  EXPECT_FALSE(defaults->quick);
  EXPECT_EQ(defaults->out, "BENCH_default.json");
  EXPECT_TRUE(defaults->baseline.empty());
  EXPECT_DOUBLE_EQ(defaults->threshold, 0.02);

  char bad[] = "--verbose";
  char* unknown[] = {prog, bad};
  EXPECT_FALSE(parse_options(2, unknown, "bench", "BENCH_default.json", 0.02).has_value());
  char* no_value[] = {prog, out};
  EXPECT_FALSE(parse_options(2, no_value, "bench", "BENCH_default.json", 0.02).has_value());
}

}  // namespace
