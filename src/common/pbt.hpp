// A lightweight property-based testing engine for the model and simulator
// test suites (tests/property/). Design goals, in order:
//
//   1. Determinism — every run derives all case seeds from one base seed,
//      so a CI failure is reproducible locally by exporting
//      BWPART_PBT_SEED=<printed seed>.
//   2. Actionable failures — on a failing case the engine greedily shrinks
//      the counterexample through a caller-supplied shrink function
//      (bounded by max_shrink_steps) and reports the minimal input found,
//      the base seed, and the failing case index.
//   3. Zero dependencies — properties are plain std::functions over values
//      produced by seeded generators; gtest integration is one
//      EXPECT_TRUE(result.ok) << result.report().
//
// A property returns an empty string on success or a human-readable
// description of the violated expectation.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace bwpart::pbt {

/// The base seed for a test binary: the BWPART_PBT_SEED environment
/// variable when set and non-empty, else `fallback`. The variable must hold
/// a whole decimal or 0x-hex unsigned 64-bit integer; anything else aborts,
/// naming the variable and its value.
std::uint64_t base_seed(std::uint64_t fallback = 0x5eedc0def00dULL);

/// Derives the per-case RNG seed (splitmix64 over base ^ index); exposed so
/// a single failing case can be replayed in isolation.
std::uint64_t case_seed(std::uint64_t base, std::uint64_t index);

struct Config {
  std::uint64_t seed = base_seed();
  int cases = 200;
  int max_shrink_steps = 500;
};

struct Result {
  bool ok = true;
  std::string name;
  std::uint64_t seed = 0;  ///< base seed of the whole run
  int cases_run = 0;
  // Populated on failure:
  std::uint64_t failing_index = 0;
  std::uint64_t failing_seed = 0;
  int shrink_steps = 0;
  std::string counterexample;  ///< printed (shrunk) failing input
  std::string message;         ///< property's failure description

  /// Multi-line failure report including the reproduction recipe.
  std::string report() const;
};

template <typename T>
using GenFn = std::function<T(Rng&)>;
/// Empty string = property holds.
template <typename T>
using Property = std::function<std::string(const T&)>;
/// Smaller candidate inputs to try, ordered most-aggressive first.
template <typename T>
using ShrinkFn = std::function<std::vector<T>(const T&)>;
template <typename T>
using PrintFn = std::function<std::string(const T&)>;

/// Runs `prop` over `cfg.cases` generated inputs. On the first failure,
/// shrinks greedily: repeatedly replaces the counterexample with the first
/// shrink candidate that still fails, until no candidate fails or the step
/// budget runs out.
template <typename T>
Result for_all(std::string_view name, const GenFn<T>& gen,
               const Property<T>& prop, const Config& cfg = {},
               const ShrinkFn<T>& shrink = nullptr,
               const PrintFn<T>& print = nullptr) {
  Result r;
  r.name = std::string(name);
  r.seed = cfg.seed;
  for (int i = 0; i < cfg.cases; ++i) {
    const std::uint64_t cs = case_seed(cfg.seed, static_cast<std::uint64_t>(i));
    Rng rng(cs);
    T value = gen(rng);
    std::string msg = prop(value);
    ++r.cases_run;
    if (msg.empty()) continue;

    r.ok = false;
    r.failing_index = static_cast<std::uint64_t>(i);
    r.failing_seed = cs;
    if (shrink) {
      bool progressed = true;
      while (progressed && r.shrink_steps < cfg.max_shrink_steps) {
        progressed = false;
        for (T& candidate : shrink(value)) {
          if (r.shrink_steps >= cfg.max_shrink_steps) break;
          ++r.shrink_steps;
          std::string cmsg = prop(candidate);
          if (!cmsg.empty()) {
            value = std::move(candidate);
            msg = std::move(cmsg);
            progressed = true;
            break;
          }
        }
      }
    }
    r.message = std::move(msg);
    if (print) {
      r.counterexample = print(value);
    } else {
      std::ostringstream os;
      os << "<no printer; case seed 0x" << std::hex << cs << ">";
      r.counterexample = os.str();
    }
    return r;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Generator and shrinker building blocks shared by the property suites.

/// Uniform double in [lo, hi).
double gen_double(Rng& rng, double lo, double hi);
/// Log-uniform double in [lo, hi) — natural for APC/API magnitudes that
/// span orders of magnitude.
double gen_log_double(Rng& rng, double lo, double hi);
/// Uniform integer in [lo, hi] inclusive.
std::uint64_t gen_uint(Rng& rng, std::uint64_t lo, std::uint64_t hi);

/// Shrink candidates for a vector of doubles: drop elements (shorter
/// counterexamples first), then move individual values toward `anchor`.
/// Vectors are never shrunk below `min_size`.
std::vector<std::vector<double>> shrink_double_vec(
    const std::vector<double>& v, std::size_t min_size, double anchor);

/// Shrink candidates for one scalar: values between `anchor` and `x`.
std::vector<double> shrink_double(double x, double anchor);

/// "v0=..., v1=..." rendering used by default printers.
std::string describe(std::span<const double> values);

}  // namespace bwpart::pbt
