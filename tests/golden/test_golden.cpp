// Golden regression corpus: end-to-end RunResult fingerprints for all 14
// Table IV mixes x all 7 partitioning schemes at CI scale (seed 42), plus a
// per-DRAM-generation section (schema 2): two quick mixes x all schemes
// under each post-DDR2 generation (DDR3-1600, DDR4-2400, HBM-like), so a
// change to the generation registry, the posted-CAS timing derivation or
// the HBM-class geometry handling trips a fingerprint diff even though the
// 98 DDR2 entries stay pinned to their pre-registry values.
//
// Schema 3 adds a "churn" section: eleven dynamic-tenancy scenarios
// (departures, arrivals, initial dormancy, phase changes, coincident
// events — each written in the ChurnSchedule text grammar, so the corpus
// also pins the parser) x representative schemes, fingerprinted through
// harness::fingerprint(ChurnRunResult), which chains the fixed RunResult
// fingerprint with the tenancy-normalized series, event outcomes and
// violation clocks. The steady-state-empty scenario pins the
// empty-schedule == fixed-measure-path bit-identity inside the corpus
// itself. The 98 mix entries and the generation section are unchanged
// from schema 2.
//
// Schema 4 adds a "controllers" section: the portfolio64 machine (16
// copies of hetero-5, 64 apps, on 4 independent DDR2-1600 controllers) x
// all 7 schemes at the same CI-scale phases. Every controller there is
// built over all 64 global app ids while only its 16 round-robin apps
// enqueue, and per-controller DSTF enforcement, interference attribution
// and the event engine all run once per controller, so a change to any of
// those trips this section even when every single-controller entry holds.
// The mixes, generations and churn sections are unchanged from schema 3.
//
// Schema 5 adds a "reprofile" section: three Table IV mixes (one homo, two
// hetero) x all 7 schemes with the rolling re-profiler on in the measure
// phase (period 10k cycles). It is the one measure phase whose result
// depends on the interference counters, so a change that stops attributing
// there trips every row even when the fixed-share sections all hold. The
// other sections are unchanged from schema 4.
//
//   test_golden --file tests/golden/fingerprints.json [--update]
//
// Every section except churn is a sweep through Experiment::run_all, and
// each is computed twice in this one binary: through the snapshot/fork path
// (profile once, fork every scheme's measure phase) and through straight
// per-scheme runs (Experiment::set_snapshot_reuse(false)). Both compare
// against the same committed file, which makes the corpus a cross-path
// bit-identity proof on top of a regression tripwire: any change to the
// simulator, the scheduler stack or the snapshot engine that shifts even
// one double by one ULP shows up as a fingerprint diff. --update writes the
// corpus only when the two paths agree.
//
// The fingerprints are toolchain-specific (std::pow in the 2/3-power scheme
// is not correctly rounded across libm versions), so a mismatch after a
// compiler/libc upgrade is expected — regenerate with --update and review
// the diff (see tests/golden/README.md).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "../obs/mini_json.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "dram/config.hpp"
#include "harness/churn.hpp"
#include "harness/differential.hpp"
#include "harness/experiment.hpp"
#include "harness/shard.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace bwpart;

harness::PhaseConfig golden_phases() {
  harness::PhaseConfig ph;
  ph.warmup_cycles = 20'000;
  ph.profile_cycles = 100'000;
  ph.measure_cycles = 100'000;
  ph.seed = 42;
  return ph;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// mix name -> scheme name -> fingerprint, ordered as paper_mixes().
using Corpus = std::vector<std::pair<std::string, std::map<std::string, std::string>>>;

/// The post-DDR2 generations pinned by the "generations" section, and the
/// two mixes (one heterogeneous, one homogeneous) run under each.
constexpr const char* kGoldenGenerations[] = {"ddr3_1600", "ddr4_2400",
                                              "hbm_like"};
constexpr const char* kGoldenGenerationMixes[] = {"hetero-5", "homo-1"};

/// generation -> (mix -> scheme -> fingerprint), ordered as
/// kGoldenGenerations.
using GenCorpus = std::vector<std::pair<std::string, Corpus>>;

/// Churn scenarios pinned by the schema-3 "churn" section. Every schedule
/// is written in the ChurnSchedule text grammar (all Table IV mixes have
/// four apps, indices 0-3; the golden measure window is 100k cycles). QoS
/// scenarios guarantee app 3 (hmmer in qos-mix-1) 0.6 IPC and sweep the
/// share schemes only; the rest also pin a priority scheme.
struct ChurnScenario {
  const char* name;
  const char* mix;
  const char* schedule;
  bool qos;
};

constexpr ChurnScenario kGoldenChurnScenarios[] = {
    // Empty schedule: the corpus-internal proof that a churn run with no
    // events reproduces the fixed measure path bit-for-bit.
    {"steady-state-empty", "qos-mix-1", "", false},
    {"depart-mid", "hetero-5", "@25000 depart 1", false},
    {"depart-return", "hetero-5", "@25000 depart 1; @60000 arrive 1", false},
    {"late-join", "homo-1", "dormant 2; @30000 arrive 2", false},
    {"phase-burst", "hetero-5", "@20000 phase 0 api=0.01", false},
    {"double-blink", "hetero-2",
     "@10000 depart 0; @15000 depart 1; @50000 arrive 0; @55000 arrive 1",
     false},
    {"staggered-start", "homo-3",
     "dormant 1,2; @40000 arrive 1; @70000 arrive 2", false},
    {"coincident-events", "hetero-7",
     "@30000 depart 2; @30000 phase 0 mean_cluster=6 write_fraction=0.4",
     false},
    {"full-knobs", "homo-5",
     "@25000 phase 1 api=0.02 seq_run_lines=2 intra_cluster_gap=3; "
     "@50000 depart 3; @80000 arrive 3",
     false},
    {"qos-phase-up-down", "qos-mix-1",
     "@20000 phase 3 api=0.008; @55000 phase 3 api=0.004", true},
    {"qos-tenancy-churn", "qos-mix-1",
     "@25000 depart 1; @60000 arrive 1", true},
};

/// Representative schemes for the churn section: one weight-proportional
/// share scheme, the paper's square-root scheme, and one priority scheme
/// (skipped under QoS, where the scheme partitions the best-effort pool).
constexpr core::Scheme kGoldenChurnSchemes[] = {
    core::Scheme::Proportional, core::Scheme::SquareRoot,
    core::Scheme::PriorityApc};

/// The re-solve cadence every churn scenario runs with (small enough that
/// each event's re-solve lands inside the 100k golden window).
harness::ChurnRunConfig golden_churn_config(core::Scheme scheme, bool qos) {
  harness::ChurnRunConfig cfg;
  cfg.scheme = scheme;
  if (qos) cfg.qos = {core::QosRequirement{3, 0.6}};
  cfg.reprofile_window = 10'000;
  cfg.eval_epoch = 10'000;
  return cfg;
}

/// Mixes and re-profiling period of the schema-5 "reprofile" section.
constexpr const char* kGoldenReprofileMixes[] = {"homo-2", "hetero-1",
                                                 "hetero-6"};
constexpr Cycle kGoldenReprofilePeriod = 10'000;

const workload::MixSpec& golden_mix_by_name(const char* name) {
  if (workload::qos_mix1().name == std::string_view(name)) {
    return workload::qos_mix1();
  }
  for (const workload::MixSpec& mix : workload::paper_mixes()) {
    if (mix.name == std::string_view(name)) return mix;
  }
  std::fprintf(stderr, "unknown golden mix '%s'\n", name);
  std::exit(2);
}

/// One corpus row: scheme name -> fingerprint of a kAllSchemes sweep.
std::map<std::string, std::string> scheme_row(
    const std::vector<harness::RunResult>& results) {
  std::map<std::string, std::string> row;
  for (std::size_t s = 0; s < results.size(); ++s) {
    row[core::to_string(core::kAllSchemes[s])] =
        hex64(harness::fingerprint(results[s]));
  }
  return row;
}

Corpus compute_corpus(bool reuse) {
  const auto mixes = workload::paper_mixes();
  const harness::SystemConfig machine;
  const harness::PhaseConfig phases = golden_phases();
  Corpus corpus(mixes.size());
  // Mixes in parallel, the scheme sweep serial inside each.
  parallel_for(mixes.size(), [&](std::size_t i) {
    const auto apps = workload::resolve_mix(mixes[i]);
    harness::Experiment experiment(machine, apps, phases);
    experiment.set_snapshot_reuse(reuse);
    corpus[i] = {std::string(mixes[i].name),
                 scheme_row(experiment.run_all(core::kAllSchemes, 1))};
  });
  return corpus;
}

GenCorpus compute_generation_corpus(bool reuse) {
  const harness::PhaseConfig phases = golden_phases();
  constexpr std::size_t n_gens = std::size(kGoldenGenerations);
  constexpr std::size_t n_mixes = std::size(kGoldenGenerationMixes);
  GenCorpus corpus(n_gens);
  for (std::size_t g = 0; g < n_gens; ++g) {
    corpus[g] = {kGoldenGenerations[g], Corpus(n_mixes)};
  }
  // Flat (generation, mix) grid in parallel, scheme sweep serial inside.
  parallel_for(n_gens * n_mixes, [&](std::size_t idx) {
    const std::size_t g = idx / n_mixes;
    const std::size_t m = idx % n_mixes;
    harness::SystemConfig machine;
    machine.dram = dram::dram_config_for_generation(kGoldenGenerations[g]);
    const char* mix = kGoldenGenerationMixes[m];
    const auto apps = workload::resolve_mix(golden_mix_by_name(mix));
    harness::Experiment experiment(machine, apps, phases);
    experiment.set_snapshot_reuse(reuse);
    corpus[g].second[m] = {mix,
                           scheme_row(experiment.run_all(core::kAllSchemes, 1))};
  });
  return corpus;
}

Corpus compute_churn_corpus() {
  constexpr std::size_t n = std::size(kGoldenChurnScenarios);
  const harness::SystemConfig machine;
  const harness::PhaseConfig phases = golden_phases();
  Corpus corpus(n);
  // Scenarios in parallel, schemes serial inside each. run_churn profiles
  // and measures on a fresh system per scheme, so the section has no
  // snapshot path and is computed once.
  parallel_for(n, [&](std::size_t i) {
    const ChurnScenario& sc = kGoldenChurnScenarios[i];
    const auto schedule = harness::ChurnSchedule::parse(sc.schedule);
    const auto apps = workload::resolve_mix(golden_mix_by_name(sc.mix));
    const harness::Experiment experiment(machine, apps, phases);
    std::map<std::string, std::string> row;
    for (const core::Scheme scheme : kGoldenChurnSchemes) {
      if (sc.qos && core::is_priority_scheme(scheme)) continue;
      const harness::ChurnRunResult r =
          experiment.run_churn(schedule, golden_churn_config(scheme, sc.qos));
      row[core::to_string(scheme)] = hex64(harness::fingerprint(r));
    }
    corpus[i] = {sc.name, std::move(row)};
  });
  return corpus;
}

/// The schema-4 "controllers" section: portfolio64's one config, whose
/// phases and seed are the golden ones.
Corpus compute_controller_corpus(bool reuse) {
  const harness::shard::ShardConfig cfg =
      harness::shard::make_portfolio("portfolio64").configs.front();
  harness::Experiment experiment = harness::shard::make_experiment(cfg);
  experiment.set_snapshot_reuse(reuse);
  // The schemes run in parallel here: the config is large and alone.
  return {{"portfolio64", scheme_row(experiment.run_all(core::kAllSchemes))}};
}

/// The schema-5 "reprofile" section: golden phases plus a rolling
/// re-profiler in every measure phase.
Corpus compute_reprofile_corpus(bool reuse) {
  constexpr std::size_t n = std::size(kGoldenReprofileMixes);
  const harness::SystemConfig machine;
  harness::PhaseConfig phases = golden_phases();
  phases.reprofile_period = kGoldenReprofilePeriod;
  Corpus corpus(n);
  parallel_for(n, [&](std::size_t i) {
    const char* mix = kGoldenReprofileMixes[i];
    const auto apps = workload::resolve_mix(golden_mix_by_name(mix));
    harness::Experiment experiment(machine, apps, phases);
    experiment.set_snapshot_reuse(reuse);
    corpus[i] = {mix, scheme_row(experiment.run_all(core::kAllSchemes, 1))};
  });
  return corpus;
}

/// The sections computed through Experiment::run_all.
struct RunAllSections {
  Corpus mixes;
  GenCorpus generations;
  Corpus controllers;
  Corpus reprofile;

  bool operator==(const RunAllSections&) const = default;
};

/// Every run_all section through one path: snapshot forks (`reuse`) or
/// straight per-scheme runs.
RunAllSections compute_run_all_sections(bool reuse) {
  return {compute_corpus(reuse), compute_generation_corpus(reuse),
          compute_controller_corpus(reuse), compute_reprofile_corpus(reuse)};
}

void write_rows(std::ofstream& os, const Corpus& corpus,
                const char* indent) {
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    os << indent << "\"" << corpus[i].first << "\": {";
    bool first = true;
    for (const auto& [scheme, fp] : corpus[i].second) {
      os << (first ? "" : ", ") << "\"" << scheme << "\": \"" << fp << "\"";
      first = false;
    }
    os << "}" << (i + 1 < corpus.size() ? "," : "") << "\n";
  }
}

void write_corpus(const std::string& path, const RunAllSections& sections,
                  const Corpus& churn_corpus) {
  const GenCorpus& gen_corpus = sections.generations;
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
    std::exit(2);
  }
  const harness::PhaseConfig ph = golden_phases();
  os << "{\n  \"schema\": 5,\n  \"seed\": " << ph.seed << ",\n"
     << "  \"phases\": {\"warmup\": " << ph.warmup_cycles
     << ", \"profile\": " << ph.profile_cycles
     << ", \"measure\": " << ph.measure_cycles << "},\n  \"mixes\": {\n";
  write_rows(os, sections.mixes, "    ");
  os << "  },\n  \"generations\": {\n";
  for (std::size_t g = 0; g < gen_corpus.size(); ++g) {
    os << "    \"" << gen_corpus[g].first << "\": {\n";
    write_rows(os, gen_corpus[g].second, "      ");
    os << "    }" << (g + 1 < gen_corpus.size() ? "," : "") << "\n";
  }
  const harness::ChurnRunConfig cc =
      golden_churn_config(core::Scheme::Proportional, false);
  os << "  },\n  \"churn_settings\": {\"reprofile\": " << cc.reprofile_window
     << ", \"epoch\": " << cc.eval_epoch << "},\n  \"churn\": {\n";
  write_rows(os, churn_corpus, "    ");
  os << "  },\n  \"controllers\": {\n";
  write_rows(os, sections.controllers, "    ");
  os << "  },\n  \"reprofile_settings\": {\"period\": "
     << kGoldenReprofilePeriod << "},\n  \"reprofile\": {\n";
  write_rows(os, sections.reprofile, "    ");
  os << "  }\n}\n";
}

/// Compares one computed mix->scheme->fp table against a JSON object,
/// printing every divergence. `where` prefixes messages ("" for the DDR2
/// baseline, "ddr4_2400 / " for a generation section).
void check_rows(const testjson::Value& node, const Corpus& expected,
                const std::string& where, std::size_t& checked,
                std::size_t& mismatches) {
  for (const auto& [mix_name, expected_row] : expected) {
    if (!node.has(mix_name)) {
      std::fprintf(stderr, "golden corpus is missing mix '%s%s'\n",
                   where.c_str(), mix_name.c_str());
      ++mismatches;
      continue;
    }
    const testjson::Value& row = node.at(mix_name);
    for (const auto& [scheme, fp] : expected_row) {
      ++checked;
      if (!row.has(scheme)) {
        std::fprintf(stderr, "golden corpus is missing %s%s / %s\n",
                     where.c_str(), mix_name.c_str(), scheme.c_str());
        ++mismatches;
      } else if (row.at(scheme).str != fp) {
        std::fprintf(stderr, "MISMATCH %s%s / %s: golden %s, computed %s\n",
                     where.c_str(), mix_name.c_str(), scheme.c_str(),
                     row.at(scheme).str.c_str(), fp.c_str());
        ++mismatches;
      }
    }
  }
}

/// Checks a section `name` of `doc` with check_rows, counting a missing
/// section as one mismatch.
void check_section(const testjson::Value& doc, const char* name,
                   const Corpus& expected, const std::string& where,
                   std::size_t& checked, std::size_t& mismatches) {
  if (!doc.has(name)) {
    std::fprintf(stderr, "golden corpus has no \"%s\" section\n", name);
    ++mismatches;
    return;
  }
  check_rows(doc.at(name), expected, where, checked, mismatches);
}

/// Checks every run_all section; `path` ("" or "straight / ") prefixes
/// the messages.
void check_run_all_sections(const testjson::Value& doc,
                            const RunAllSections& sections,
                            const std::string& path, std::size_t& checked,
                            std::size_t& mismatches) {
  check_section(doc, "mixes", sections.mixes, path, checked, mismatches);
  for (const auto& [gen_name, gen_rows] : sections.generations) {
    if (!doc.has("generations") || !doc.at("generations").has(gen_name)) {
      std::fprintf(stderr, "golden corpus is missing generation '%s'\n",
                   gen_name.c_str());
      ++mismatches;
      continue;
    }
    check_rows(doc.at("generations").at(gen_name), gen_rows,
               path + gen_name + " / ", checked, mismatches);
  }
  check_section(doc, "controllers", sections.controllers,
                path + "controllers / ", checked, mismatches);
  check_section(doc, "reprofile", sections.reprofile, path + "reprofile / ",
                checked, mismatches);
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool update = false;
  cli::Parser cli("test_golden");
  cli.text("--file", path, "FILE", "required: the committed corpus");
  cli.flag("--update", update,
           "rewrite FILE from this build (both paths must agree)");
  cli.parse(argc, argv);
  if (path.empty()) cli.fail("--file: required");

  const RunAllSections forked = compute_run_all_sections(true);
  const RunAllSections straight = compute_run_all_sections(false);
  const Corpus churn_corpus = compute_churn_corpus();
  if (update) {
    if (!(forked == straight)) {
      std::fprintf(stderr,
                   "snapshot forks and straight runs disagree; not writing "
                   "'%s'\n",
                   path.c_str());
      return 1;
    }
    write_corpus(path, forked, churn_corpus);
    std::printf(
        "wrote %zu mixes x %zu schemes plus %zu generations x %zu mixes "
        "plus %zu churn scenarios plus %zu multi-controller configs plus "
        "%zu re-profiling mixes to %s\n",
        forked.mixes.size(),
        forked.mixes.empty() ? 0 : forked.mixes.front().second.size(),
        forked.generations.size(),
        forked.generations.empty()
            ? 0
            : forked.generations.front().second.size(),
        churn_corpus.size(), forked.controllers.size(),
        forked.reprofile.size(), path.c_str());
    return 0;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr,
                 "cannot open golden corpus '%s' — generate it with "
                 "'%s --file %s --update'\n",
                 path.c_str(), argv[0], path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  testjson::ValuePtr doc;
  try {
    doc = testjson::parse(buf.str());
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "golden corpus '%s' is not valid JSON: %s\n",
                 path.c_str(), e.what());
    return 2;
  }

  if (!doc->has("schema") ||
      static_cast<int>(doc->at("schema").num) != 5) {
    std::fprintf(stderr,
                 "golden corpus '%s' uses an old schema (the reprofile "
                 "section arrived in schema 5) — regenerate with --update\n",
                 path.c_str());
    return 1;
  }

  const harness::PhaseConfig ph = golden_phases();
  if (static_cast<std::uint64_t>(doc->at("seed").num) != ph.seed ||
      static_cast<Cycle>(doc->at("phases").at("warmup").num) !=
          ph.warmup_cycles ||
      static_cast<Cycle>(doc->at("phases").at("profile").num) !=
          ph.profile_cycles ||
      static_cast<Cycle>(doc->at("phases").at("measure").num) !=
          ph.measure_cycles) {
    std::fprintf(stderr,
                 "golden corpus '%s' was generated for different phase "
                 "settings — regenerate with --update\n",
                 path.c_str());
    return 1;
  }

  std::size_t checked = 0, mismatches = 0;
  check_run_all_sections(*doc, forked, "", checked, mismatches);
  check_run_all_sections(*doc, straight, "straight / ", checked, mismatches);
  check_section(*doc, "churn", churn_corpus, "churn / ", checked, mismatches);
  if (!doc->has("reprofile_settings") ||
      static_cast<Cycle>(doc->at("reprofile_settings").at("period").num) !=
          kGoldenReprofilePeriod) {
    std::fprintf(stderr,
                 "golden corpus '%s' was not generated for re-profiling "
                 "period %llu — regenerate with --update\n",
                 path.c_str(),
                 static_cast<unsigned long long>(kGoldenReprofilePeriod));
    ++mismatches;
  }
  if (mismatches != 0) {
    std::fprintf(
        stderr,
        "\n%zu of %zu fingerprints diverge from the golden corpus.\n"
        "If this follows an intentional simulator/model change (or a "
        "compiler/libm\nupgrade — the corpus is toolchain-specific), "
        "regenerate with\n  test_golden --file %s --update\nand review the "
        "diff; see tests/golden/README.md. Otherwise this is a real\n"
        "regression: some run is no longer bit-identical to what it was.\n",
        mismatches, checked, path.c_str());
    return 1;
  }
  std::printf("all %zu fingerprints match the golden corpus\n", checked);
  return 0;
}
