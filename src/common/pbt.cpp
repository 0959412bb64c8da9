#include "common/pbt.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "common/assert.hpp"

namespace bwpart::pbt {

std::uint64_t base_seed(std::uint64_t fallback) {
  const char* env = std::getenv("BWPART_PBT_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  std::string_view text(env);
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
    base = 16;
  }
  // from_chars takes no sign, space or prefix for an unsigned target, so a
  // seed is all digits or a loud failure, never a silent re-run of another.
  std::uint64_t seed = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, seed, base);
  if (ec != std::errc() || end != last) {
    std::fprintf(stderr,
                 "BWPART_PBT_SEED='%s' is not a decimal or 0x-hex unsigned "
                 "64-bit integer\n",
                 env);
    std::abort();
  }
  return seed;
}

std::uint64_t case_seed(std::uint64_t base, std::uint64_t index) {
  // splitmix64 finalizer over a combination of base and index; distinct
  // cases land in statistically independent RNG streams.
  std::uint64_t z = base ^ (index * 0x9e3779b97f4a7c15ULL +
                            0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string Result::report() const {
  std::ostringstream os;
  if (ok) {
    os << "property '" << name << "' held for " << cases_run
       << " cases (base seed " << seed << ")";
    return os.str();
  }
  os << "property '" << name << "' FAILED\n"
     << "  " << message << "\n"
     << "  counterexample (after " << shrink_steps
     << " shrink steps): " << counterexample << "\n"
     << "  base seed " << seed << ", case " << failing_index
     << " (case seed " << failing_seed << ")\n"
     << "  reproduce: BWPART_PBT_SEED=" << seed
     << " <test binary> --gtest_filter=<this test>";
  return os.str();
}

double gen_double(Rng& rng, double lo, double hi) {
  BWPART_ASSERT(lo < hi, "empty double range");
  return lo + rng.next_double() * (hi - lo);
}

double gen_log_double(Rng& rng, double lo, double hi) {
  BWPART_ASSERT(lo > 0.0 && lo < hi, "log range needs 0 < lo < hi");
  const double u = gen_double(rng, std::log(lo), std::log(hi));
  return std::exp(u);
}

std::uint64_t gen_uint(Rng& rng, std::uint64_t lo, std::uint64_t hi) {
  BWPART_ASSERT(lo <= hi, "empty integer range");
  return lo + rng.next_below(hi - lo + 1);
}

std::vector<double> shrink_double(double x, double anchor) {
  std::vector<double> out;
  if (x == anchor) return out;
  out.push_back(anchor);                  // most aggressive first
  out.push_back(anchor + (x - anchor) / 2.0);
  const double nudged = anchor + (x - anchor) * 0.9;
  if (nudged != x) out.push_back(nudged);
  return out;
}

std::vector<std::vector<double>> shrink_double_vec(
    const std::vector<double>& v, std::size_t min_size, double anchor) {
  std::vector<std::vector<double>> out;
  // Structural shrinks: drop one element at a time.
  if (v.size() > min_size) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::vector<double> smaller;
      smaller.reserve(v.size() - 1);
      for (std::size_t j = 0; j < v.size(); ++j) {
        if (j != i) smaller.push_back(v[j]);
      }
      out.push_back(std::move(smaller));
    }
  }
  // Value shrinks: move one element toward the anchor.
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (double candidate : shrink_double(v[i], anchor)) {
      std::vector<double> copy = v;
      copy[i] = candidate;
      out.push_back(std::move(copy));
    }
  }
  return out;
}

std::string describe(std::span<const double> values) {
  std::ostringstream os;
  os.precision(12);
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) os << ", ";
    os << values[i];
  }
  os << "]";
  return os.str();
}

}  // namespace bwpart::pbt
