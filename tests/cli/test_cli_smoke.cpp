// End-to-end smoke tests for the bwpart_sim command-line driver, exercising
// the observability outputs (--metrics-out / --trace-out / --epochs-out /
// --epoch-cycles) and the snapshot checkpointing flags (--snapshot-out /
// --resume) as a user would: real process invocations, outputs validated
// with the in-tree JSON parser, resumed results compared byte-for-byte
// against straight runs, corrupt/mismatched snapshots rejected with a
// nonzero exit, and malformed flag values rejected before any simulation.
//
// The binary under test is passed as argv[1] by ctest
// ($<TARGET_FILE:bwpart_sim>), so the suite needs a custom main.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "../obs/mini_json.hpp"

namespace {

using bwpart::testjson::Value;
using bwpart::testjson::ValuePtr;

std::string g_sim_path;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "cli_smoke_" + name;
}

/// Runs `cmd` with stdout and stderr redirected to temp files; returns the
/// process exit code and fills `out` with the captured stdout and
/// `err_line` with the first line of stderr.
int run_cmd(const std::string& cmd, std::string* out = nullptr,
            std::string* err_line = nullptr) {
  const std::string capture = tmp_path("stdout.txt");
  const std::string errors = tmp_path("stderr.txt");
  const int status =
      std::system((cmd + " > " + capture + " 2> " + errors).c_str());
  if (out != nullptr) {
    std::ifstream in(capture);
    std::stringstream buf;
    buf << in.rdbuf();
    *out = buf.str();
  }
  if (err_line != nullptr) {
    std::ifstream in(errors);
    std::getline(in, *err_line);
  }
  std::remove(capture.c_str());
  std::remove(errors.c_str());
  if (status == -1) return -1;
  return WEXITSTATUS(status);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

const char kBaseArgs[] = " --mix hetero-3 --cycles 60000 --csv";

// All four observability flags in one invocation: the metrics document and
// the Chrome trace must parse as JSON with the expected structure, the
// epoch series must parse line-by-line as JSONL.
TEST(CliSmoke, ObservabilityOutputsAreValidJson) {
  const std::string metrics = tmp_path("metrics.json");
  const std::string trace = tmp_path("trace.json");
  const std::string epochs = tmp_path("epochs.jsonl");
  const int rc = run_cmd(g_sim_path + kBaseArgs + " --scheme Equal" +
                         " --metrics-out " + metrics + " --trace-out " +
                         trace + " --epochs-out " + epochs +
                         " --epoch-cycles 20000");
  ASSERT_EQ(rc, 0);

  const ValuePtr mdoc = bwpart::testjson::parse(read_file(metrics));
  ASSERT_TRUE(mdoc->is_object());
  ASSERT_TRUE(mdoc->has("schema"));
  ASSERT_TRUE(mdoc->has("metrics"));
  // Schema-1 documents carry "obs_compiled_in", always true.
  const Value& compiled_in = mdoc->at("obs_compiled_in");
  ASSERT_EQ(compiled_in.kind, Value::Kind::kBool);
  ASSERT_TRUE(compiled_in.b);
  ASSERT_TRUE(mdoc->at("metrics").is_object());
  EXPECT_GT(mdoc->at("metrics").size(), 0u);

  const ValuePtr tdoc = bwpart::testjson::parse(read_file(trace));
  ASSERT_TRUE(tdoc->is_object());
  ASSERT_TRUE(tdoc->has("traceEvents"));
  EXPECT_TRUE(tdoc->at("traceEvents").is_array());

  std::ifstream ein(epochs);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(ein, line)) {
    if (line.empty()) continue;
    const ValuePtr row = bwpart::testjson::parse(line);
    EXPECT_TRUE(row->is_object()) << "epoch row " << rows;
    ++rows;
  }
  EXPECT_GT(rows, 0u) << "epoch series is empty despite --epoch-cycles";

  std::remove(metrics.c_str());
  std::remove(trace.c_str());
  std::remove(epochs.c_str());
}

// --snapshot-out writes a checkpoint and produces the same CSV as a plain
// run; --resume forks from the checkpoint and must reproduce that CSV
// byte-for-byte (the bit-identity contract, observed end-to-end through the
// CLI).
TEST(CliSmoke, SnapshotResumeReproducesStraightRunExactly) {
  const std::string snap = tmp_path("profile.bwps");
  std::string straight, with_save, resumed;
  ASSERT_EQ(run_cmd(g_sim_path + kBaseArgs + " --scheme all", &straight), 0);
  ASSERT_EQ(run_cmd(g_sim_path + kBaseArgs + " --scheme all --snapshot-out " +
                        snap,
                    &with_save),
            0);
  std::ifstream sf(snap, std::ios::binary);
  ASSERT_TRUE(sf.good()) << "snapshot file was not written";
  sf.close();
  ASSERT_EQ(run_cmd(g_sim_path + kBaseArgs + " --scheme all --resume " + snap,
                    &resumed),
            0);
  EXPECT_FALSE(straight.empty());
  EXPECT_EQ(straight, with_save);
  EXPECT_EQ(straight, resumed);
  std::remove(snap.c_str());
}

// A truncated snapshot and a snapshot from a different configuration are
// both rejected with a nonzero exit instead of silently producing numbers;
// a forged file with a valid checksum exits 1 with a named error.
TEST(CliSmoke, CorruptOrMismatchedSnapshotsAreRejected) {
  const std::string snap = tmp_path("reject.bwps");
  ASSERT_EQ(run_cmd(g_sim_path + kBaseArgs +
                    " --scheme Equal --snapshot-out " + snap),
            0);

  // Different mix and different seed: the config fingerprint must not match.
  EXPECT_NE(run_cmd(g_sim_path + " --mix homo-1 --cycles 60000 --csv" +
                    " --scheme Equal --resume " + snap),
            0);
  EXPECT_NE(run_cmd(g_sim_path + kBaseArgs +
                    " --seed 7 --scheme Equal --resume " + snap),
            0);

  // Truncate the container: loud failure, nonzero exit.
  const std::string whole = read_file(snap);
  ASSERT_GT(whole.size(), 64u);
  const std::string trunc = tmp_path("truncated.bwps");
  std::ofstream ts(trunc, std::ios::binary);
  ts.write(whole.data(), static_cast<std::streamsize>(whole.size() / 2));
  ts.close();
  EXPECT_NE(run_cmd(g_sim_path + kBaseArgs + " --scheme Equal --resume " +
                    trunc),
            0);

  // Flip one byte mid-file: checksum failure, nonzero exit.
  std::string flipped = whole;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x10);
  const std::string flip = tmp_path("flipped.bwps");
  std::ofstream fs(flip, std::ios::binary);
  fs.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  fs.close();
  EXPECT_NE(run_cmd(g_sim_path + kBaseArgs + " --scheme Equal --resume " +
                    flip),
            0);

  // Forgeries that keep a valid checksum must still exit 1, the container
  // error code, and never abort: a params count of 2^60 (the first payload
  // field, after magic, version, config fingerprint and payload length),
  // and a state blob whose system section tag was altered.
  const auto resealed = [&](std::string bytes, const std::string& name) {
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, as the writer seals
    for (std::size_t i = 0; i + 8 < bytes.size(); ++i) {
      h ^= static_cast<unsigned char>(bytes[i]);
      h *= 0x100000001b3ULL;
    }
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[bytes.size() - 8 + i] = static_cast<char>(h >> (8 * i));
    }
    const std::string path = tmp_path(name);
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  };
  std::string count = whole;
  for (std::size_t i = 0; i < 8; ++i) count[24 + i] = i == 7 ? 0x10 : 0;
  std::string tag = whole;
  const std::size_t sys0 = tag.find("SYS0");
  ASSERT_NE(sys0, std::string::npos);
  tag[sys0 + 3] = 'X';
  for (const std::string& forged :
       {resealed(count, "count.bwps"), resealed(tag, "tag.bwps")}) {
    std::string err;
    EXPECT_EQ(run_cmd(g_sim_path + kBaseArgs + " --scheme Equal --resume " +
                          forged,
                      nullptr, &err),
              1)
        << forged;
    EXPECT_NE(err.find("cannot resume from '" + forged + "'"),
              std::string::npos)
        << err;
    std::remove(forged.c_str());
  }

  std::remove(snap.c_str());
  std::remove(trunc.c_str());
  std::remove(flip.c_str());
}

// --dram-gen swaps the whole timing matrix in from the generation registry:
// each generation must run cleanly and move the numbers, and naming the
// baseline explicitly must reproduce the default run byte-for-byte.
TEST(CliSmoke, DramGenerationFlagSelectsRegistryConfigs) {
  std::string ddr2, ddr2_named, ddr4, hbm;
  const std::string base = g_sim_path + kBaseArgs + " --scheme Equal";
  ASSERT_EQ(run_cmd(base, &ddr2), 0);
  ASSERT_EQ(run_cmd(base + " --dram-gen ddr2_400", &ddr2_named), 0);
  ASSERT_EQ(run_cmd(base + " --dram-gen ddr4_2400", &ddr4), 0);
  ASSERT_EQ(run_cmd(base + " --dram-gen hbm_like", &hbm), 0);
  EXPECT_FALSE(ddr2.empty());
  EXPECT_FALSE(ddr4.empty());
  EXPECT_EQ(ddr2, ddr2_named)
      << "naming the default generation must not change anything";
  EXPECT_NE(ddr2, ddr4) << "DDR4 timings left the results untouched";
  EXPECT_NE(ddr4, hbm) << "HBM-class config left the results untouched";
}

// An unknown generation name must fail fast with a nonzero exit and a
// stderr message naming both the bad argument and the registered sets —
// not fall back to some default matrix.
TEST(CliSmoke, UnknownDramGenerationIsRejectedLoudly) {
  const std::string errfile = tmp_path("gen_err.txt");
  const int status =
      std::system((g_sim_path + kBaseArgs +
                   " --scheme Equal --dram-gen ddr9_bogus > /dev/null 2> " +
                   errfile)
                      .c_str());
  ASSERT_NE(status, -1);
  EXPECT_NE(WEXITSTATUS(status), 0);
  const std::string err = read_file(errfile);
  EXPECT_NE(err.find("ddr9_bogus"), std::string::npos) << err;
  EXPECT_NE(err.find("ddr4_2400"), std::string::npos)
      << "error should list the registered generations: " << err;
  std::remove(errfile.c_str());
}

// A malformed, signed or missing flag value exits 2 before any simulation,
// with a first stderr line naming the flag (the usage follows). These
// values used to be misread: "10k" cycles as 10 (then an assert abort),
// "abc" copies as 0 (an abort), "x" GB/s as 0 (a silent DDR2-400 run).
TEST(CliSmoke, MalformedFlagValuesExitTwoNamingTheFlag) {
  const struct {
    const char* args;
    const char* flag;
  } cases[] = {
      {" --cycles 10k", "--cycles"},
      {" --copies abc", "--copies"},
      {" --bandwidth x", "--bandwidth"},
      {" --epochs-out", "--epochs-out"},
  };
  for (const auto& c : cases) {
    std::string line;
    EXPECT_EQ(run_cmd(g_sim_path + kBaseArgs + " --scheme Equal" + c.args,
                      nullptr, &line),
              2)
        << c.args;
    EXPECT_EQ(line.rfind(std::string("bwpart_sim: ") + c.flag + ": ", 0), 0u)
        << c.args << " -> " << line;
  }
}

}  // namespace

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <path-to-bwpart_sim>\n", argv[0]);
    return 2;
  }
  g_sim_path = argv[1];
  return RUN_ALL_TESTS();
}
