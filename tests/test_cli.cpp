// gcmpi_compress command-line tests: each codec's `c` then `d` round trip
// on seeded payloads, the exact zfp container size, and the containers the
// tool must refuse. Each case runs the built binary (its path comes from
// CMake as GCMPI_COMPRESS_CLI) and checks its exit code, output and files.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include "compress/zfp.hpp"
#include "support/payloads.hpp"

namespace {

namespace fs = std::filesystem;
using gcmpi::testing::PayloadKind;

// The container header: magic (u32), param (u32), values (u64).
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kValuesOffset = 8;

struct Outcome {
  int exit_code = -1;
  std::string output;  // stdout and stderr
};

class Cli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("gcmpi_cli_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static Outcome run(const std::vector<std::string>& args) {
    std::string cmd = "'" GCMPI_COMPRESS_CLI "'";
    for (const auto& a : args) cmd += " '" + a + "'";
    cmd += " 2>&1";
    Outcome r;
    FILE* p = ::popen(cmd.c_str(), "r");
    if (p == nullptr) return r;
    char buf[256];
    while (std::fgets(buf, sizeof buf, p) != nullptr) r.output += buf;
    const int status = ::pclose(p);
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
  }

  template <typename T>
  void write(const std::string& name, const std::vector<T>& values) const {
    std::ofstream out(path(name), std::ios::binary);
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(T)));
  }

  [[nodiscard]] std::vector<std::uint8_t> read(const std::string& name) const {
    std::ifstream in(path(name), std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  [[nodiscard]] std::vector<float> read_floats(const std::string& name) const {
    const auto bytes = read(name);
    std::vector<float> v(bytes.size() / sizeof(float));
    std::memcpy(v.data(), bytes.data(), v.size() * sizeof(float));
    return v;
  }

  /// `c` then `d` through the CLI; both must exit 0.
  void roundtrip(const std::string& codec, const std::string& in, const std::string& param) {
    std::vector<std::string> c = {"c", codec, path(in), path(in + ".gcmc")};
    std::vector<std::string> d = {"d", codec, path(in + ".gcmc"), path(in + ".out")};
    if (!param.empty()) c.push_back(param);
    const Outcome rc = run(c);
    ASSERT_EQ(rc.exit_code, 0) << rc.output;
    const Outcome rd = run(d);
    ASSERT_EQ(rd.exit_code, 0) << rd.output;
  }

  fs::path dir_;
};

TEST_F(Cli, LosslessCodecsRoundTripByteIdentical) {
  for (const PayloadKind kind : {PayloadKind::SmoothField, PayloadKind::SpecialValues}) {
    SCOPED_TRACE(gcmpi::testing::payload_kind_name(kind));
    write("f32", gcmpi::testing::make_floats(kind, 1000, 11));
    roundtrip("mpc", "f32", "");
    EXPECT_EQ(read("f32.out"), read("f32"));
  }
}

TEST_F(Cli, LossyCodecsRoundTripWithinTheirBound) {
  const auto in = gcmpi::testing::make_floats(PayloadKind::SmoothField, 1001, 13);
  write("f32", in);
  double max_abs = 0.0;
  for (float x : in) max_abs = std::max(max_abs, std::fabs(static_cast<double>(x)));
  // An empty param is the CLI's default rate, 16.
  for (const auto& [param, rate] : {std::pair<std::string, int>{"", 16}, {"8", 8}, {"4", 4}}) {
    SCOPED_TRACE(rate);
    roundtrip("zfp", "f32", param);
    const auto out = read_floats("f32.out");
    ASSERT_EQ(out.size(), in.size());
    const double bound = gcmpi::comp::ZfpCodec(rate).error_bound(max_abs);
    for (std::size_t i = 0; i < in.size(); ++i) ASSERT_LE(std::fabs(in[i] - out[i]), bound) << i;
  }
}

TEST_F(Cli, ZfpContainerBodyIsTheExactFixedRateSize) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{1001}, std::size_t{4096}}) {
    write("f32", gcmpi::testing::make_floats(PayloadKind::SmoothField, n, n));
    const Outcome r = run({"c", "zfp", path("f32"), path("f32.gcmc"), "8"});
    ASSERT_EQ(r.exit_code, 0) << r.output;
    const std::size_t body = gcmpi::comp::ZfpCodec(8).compressed_bytes(gcmpi::comp::ZfpField::d1(n));
    EXPECT_EQ(read("f32.gcmc").size(), kHeaderBytes + body) << n;
  }
}

TEST_F(Cli, ZfpAccuracyModeIsGone) {
  write("f32", gcmpi::testing::make_floats(PayloadKind::SmoothField, 64, 1));
  const Outcome r = run({"c", "zfp-acc", path("f32"), path("f32.gcmc"), "1e-3"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage: gcmpi_compress c|d mpc|zfp <in>"), std::string::npos)
      << r.output;
  EXPECT_FALSE(fs::exists(path("f32.gcmc")));
}

// A container whose header claims twice the values its stream holds used to
// decode with the tail left as zeros; a container whose stream is cut in
// half must not decode to wrong floats either. Both fail without an output
// file.
TEST_F(Cli, CorruptContainersAreRejected) {
  write("f32", gcmpi::testing::make_floats(PayloadKind::SmoothField, 1000, 21));
  for (const std::string codec : {"mpc", "zfp"}) {
    SCOPED_TRACE(codec);
    const Outcome rc = run({"c", codec, path("f32"), path("good")});
    ASSERT_EQ(rc.exit_code, 0) << rc.output;
    const auto good = read("good");
    ASSERT_GT(good.size(), kHeaderBytes);

    auto doubled = good;
    std::uint64_t values = 0;
    std::memcpy(&values, doubled.data() + kValuesOffset, sizeof values);
    ASSERT_EQ(values, 1000u);
    values = 2000;
    std::memcpy(doubled.data() + kValuesOffset, &values, sizeof values);
    write("doubled", doubled);
    const Outcome rd = run({"d", codec, path("doubled"), path("out")});
    EXPECT_EQ(rd.exit_code, 1) << rd.output;
    EXPECT_FALSE(fs::exists(path("out")));

    auto cut = good;
    cut.resize(kHeaderBytes + (cut.size() - kHeaderBytes) / 2);
    write("cut", cut);
    const Outcome rcut = run({"d", codec, path("cut"), path("out")});
    EXPECT_EQ(rcut.exit_code, 1) << rcut.output;
    EXPECT_FALSE(fs::exists(path("out")));

    // A claim of 2^62 values is rejected by the codec's own mismatch check
    // before anything is allocated for it.
    auto huge = good;
    values = std::uint64_t{1} << 62;
    std::memcpy(huge.data() + kValuesOffset, &values, sizeof values);
    write("huge", huge);
    const Outcome rhuge = run({"d", codec, path("huge"), path("out")});
    EXPECT_EQ(rhuge.exit_code, 1) << rhuge.output;
    EXPECT_FALSE(fs::exists(path("out")));
    EXPECT_NE(rhuge.output.find(codec == "mpc" ? "container header disagrees with its stream"
                                               : "input shorter than the fixed-rate stream"),
              std::string::npos)
        << rhuge.output;
  }
}

}  // namespace
