// End-to-end smoke tests for the bwpart_advisor CLI: 10k synthetic
// requests pushed through the real binary (plain and audit mode), every
// response line validated as JSON with the in-tree mini parser, request/
// response accounting checked exactly (one response per request, errors
// line-numbered, nothing silently dropped), and the --metrics-out document
// verified to carry the advisor.* instruments. This is the same validation
// the CI advisor-smoke job runs.
// Malformed flag values must exit 2 naming the flag.
//
// The binary under test is passed as argv[1] by ctest
// ($<TARGET_FILE:bwpart_advisor>), so the suite needs a custom main.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "../obs/mini_json.hpp"

namespace {

using bwpart::testjson::Value;
using bwpart::testjson::ValuePtr;

std::string g_advisor_path;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "advisor_cli_" + name;
}

/// Runs `cmd`; returns its exit code, with the first line of its stderr in
/// `err_line` when given.
int run_cmd(const std::string& cmd, std::string* err_line = nullptr) {
  const std::string errors = tmp_path("stderr.txt");
  const int status = std::system((cmd + " 2> " + errors).c_str());
  if (err_line != nullptr) {
    std::ifstream in(errors);
    std::getline(in, *err_line);
  }
  std::remove(errors.c_str());
  if (status == -1) return -1;
  return WEXITSTATUS(status);
}

std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double uniform(std::uint64_t& s, double lo, double hi) {
  return lo + static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53 *
                  (hi - lo);
}

/// Writes `n` request lines; every `bad_every`th is deliberately malformed,
/// every `mix_every`th carries a mix= audit tag. Returns the expected
/// number of well-formed requests.
std::size_t write_requests(const std::string& path, std::size_t n,
                           std::size_t bad_every, std::size_t mix_every) {
  std::ofstream os(path);
  std::uint64_t seed = 1234;
  std::size_t good = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (bad_every != 0 && i % bad_every == 0) {
      const char* kBad[] = {"garbage", "x wsp b=nan a=1,1", "y qos b=1 a=1,1",
                            "z wsp b=1 a=1,1 a=2,1", "w wsp b=1 a=0.1"};
      os << kBad[i % 5] << '\n';
      continue;
    }
    const char* obj = i % 3 == 0 ? "fair" : "wsp";
    const bool mixed = mix_every != 0 && i % mix_every == 0;
    os << 'r' << i << ' ' << obj << " b=" << uniform(seed, 0.3, 1.5);
    const std::size_t napps = mixed ? 4 : 2 + i % 6;
    for (std::size_t a = 0; a < napps; ++a) {
      os << " a" << a << '=' << uniform(seed, 0.02, 0.6) << ','
         << uniform(seed, 0.05, 0.9);
    }
    if (mixed) os << " mix=" << (i % 2 == 0 ? "homo-3" : "hetero-5");
    os << '\n';
    ++good;
  }
  return good;
}

struct OutputSummary {
  std::size_t responses = 0;
  std::size_t ok = 0;
  std::size_t errors = 0;
  std::size_t audits = 0;
  std::set<std::uint64_t> lines;
};

/// Parses every response line, checking per-response invariants.
OutputSummary validate_output(const std::string& path) {
  OutputSummary s;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const ValuePtr doc = bwpart::testjson::parse(line);
    EXPECT_TRUE(doc->is_object()) << line;
    ++s.responses;
    const std::uint64_t no =
        static_cast<std::uint64_t>(doc->at("line").num);
    EXPECT_TRUE(s.lines.insert(no).second) << "duplicate response for line "
                                           << no;
    if (doc->at("ok").b) {
      ++s.ok;
      const std::size_t napps = doc->at("shares").size();
      EXPECT_GT(napps, 0u) << line;
      EXPECT_EQ(doc->at("alloc").size(), napps) << line;
      EXPECT_EQ(doc->at("ipc").size(), napps) << line;
      double sum = 0.0;
      for (std::size_t i = 0; i < napps; ++i) {
        sum += doc->at("shares")[i].num;
      }
      if (doc->at("feasible").b) {
        EXPECT_NEAR(sum, 1.0, 1e-9) << line;
      }
      if (doc->has("audit")) {
        ++s.audits;
        EXPECT_TRUE(doc->at("audit").has("fingerprint")) << line;
        EXPECT_GE(doc->at("audit").at("max_rel_err").num, 0.0) << line;
      }
    } else {
      ++s.errors;
      const std::string& err = doc->at("error").str;
      EXPECT_EQ(err.rfind("line " + std::to_string(no) + ": ", 0), 0u)
          << err;
    }
  }
  return s;
}

TEST(AdvisorCli, TenThousandPlainRequests) {
  const std::string reqs = tmp_path("plain_in.txt");
  const std::string resp = tmp_path("plain_out.jsonl");
  const std::string metrics = tmp_path("plain_metrics.json");
  const std::size_t n = 10'000;
  const std::size_t good = write_requests(reqs, n, /*bad_every=*/17,
                                          /*mix_every=*/0);
  const int rc = run_cmd(g_advisor_path + " --in " + reqs + " --out " + resp +
                         " --metrics-out " + metrics + " --quiet");
  ASSERT_EQ(rc, 0);

  const OutputSummary s = validate_output(resp);
  EXPECT_EQ(s.responses, n);
  EXPECT_EQ(s.ok, good);
  EXPECT_EQ(s.errors, n - good);
  EXPECT_EQ(s.audits, 0u);

  const ValuePtr mdoc = bwpart::testjson::parse([&] {
    std::ifstream in(metrics);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }());
  // Schema-1 documents carry "obs_compiled_in", always true.
  const Value& compiled_in = mdoc->at("obs_compiled_in");
  ASSERT_EQ(compiled_in.kind, Value::Kind::kBool);
  ASSERT_TRUE(compiled_in.b);
  const Value& m = mdoc->at("metrics");
  ASSERT_TRUE(m.is_object());
  EXPECT_EQ(static_cast<std::size_t>(m.at("advisor.requests").num), n);
  EXPECT_EQ(static_cast<std::size_t>(m.at("advisor.parse_errors").num),
            n - good);
  EXPECT_EQ(
      static_cast<std::size_t>(m.at("advisor.solve_ns").at("count").num),
      good);

  std::remove(reqs.c_str());
  std::remove(resp.c_str());
  std::remove(metrics.c_str());
}

TEST(AdvisorCli, ChurnReplayEmitsOneResolvePerChurnInstant) {
  const std::string reqs = tmp_path("churn_in.txt");
  const std::string sched = tmp_path("churn_sched.txt");
  const std::string resp = tmp_path("churn_out.jsonl");
  {
    std::ofstream os(reqs);
    os << "r1 qos b=0.009 lbm=0.004,0.03 libq=0.003,0.02 omnet=0.001,0.01 "
          "hmmer=0.0046,0.0046,1,0.6 be=Square_root\n";
  }
  {
    std::ofstream os(sched);
    // Two events share cycle 200000: they must coalesce into one re-solve.
    os << "dormant 1\n@200000 arrive 1\n@200000 phase 0 api=0.05\n"
          "@400000 depart 2\n";
  }
  const int rc = run_cmd(g_advisor_path + " --in " + reqs +
                         " --churn-replay " + sched + " --out " + resp +
                         " --quiet");
  ASSERT_EQ(rc, 0);

  std::ifstream in(resp);
  std::string line;
  std::size_t steps = 0;
  while (std::getline(in, line)) {
    const ValuePtr doc = bwpart::testjson::parse(line);
    EXPECT_EQ(static_cast<std::size_t>(doc->at("step").num), steps) << line;
    EXPECT_TRUE(doc->at("feasible").b) << line;
    // Dormant apps hold exactly zero share; live shares sum to 1.
    const Value& live = doc->at("live");
    const Value& shares = doc->at("shares");
    ASSERT_EQ(live.arr.size(), 4u);
    ASSERT_EQ(shares.arr.size(), 4u);
    double sum = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      if (!live.arr[i]->b) {
        EXPECT_EQ(shares.arr[i]->num, 0.0) << line;
      }
      sum += shares.arr[i]->num;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << line;
    ++steps;
  }
  // Initial install + the coalesced @200000 instant + the @400000 depart.
  EXPECT_EQ(steps, 3u);

  std::remove(reqs.c_str());
  std::remove(sched.c_str());
  std::remove(resp.c_str());
}

TEST(AdvisorCli, AuditModeSamplesAndReportsErrors) {
  const std::string reqs = tmp_path("audit_in.txt");
  const std::string resp = tmp_path("audit_out.jsonl");
  const std::size_t n = 400;
  write_requests(reqs, n, /*bad_every=*/0, /*mix_every=*/4);
  const int rc = run_cmd(g_advisor_path + " --in " + reqs + " --out " + resp +
                         " --audit-every 40 --audit-cycles 30000 --quiet");
  ASSERT_EQ(rc, 0);

  const OutputSummary s = validate_output(resp);
  EXPECT_EQ(s.responses, n);
  EXPECT_EQ(s.ok, n);
  // Lines divisible by 40 are also divisible by 4, so each is mix-tagged
  // and becomes an audit sample.
  EXPECT_EQ(s.audits, n / 40);

  std::remove(reqs.c_str());
  std::remove(resp.c_str());
}

// Malformed counts exit 2 with a first stderr line naming the flag. They
// used to be misread through atoll: "--batch-lines -1" became SIZE_MAX (a
// std::length_error abort), "--threads -1" one solver shard per thread up
// to SIZE_MAX (a run that never finishes; hence the timeout), and
// "--threads abc" silently meant auto.
TEST(AdvisorCli, MalformedFlagValuesExitTwoNamingTheFlag) {
  const struct {
    const char* args;
    const char* flag;
  } cases[] = {
      {" --batch-lines -1", "--batch-lines"},
      {" --threads -1", "--threads"},
      {" --threads abc", "--threads"},
  };
  for (const auto& c : cases) {
    std::string line;
    EXPECT_EQ(run_cmd("timeout 20 " + g_advisor_path + c.args +
                          " < /dev/null > /dev/null",
                      &line),
              2)
        << c.args;
    EXPECT_EQ(line.rfind(std::string("bwpart_advisor: ") + c.flag + ": ", 0),
              0u)
        << c.args << " -> " << line;
  }
}

}  // namespace

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <path-to-bwpart_advisor>\n", argv[0]);
    return 2;
  }
  g_advisor_path = argv[1];
  return RUN_ALL_TESTS();
}
