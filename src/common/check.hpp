// Runtime invariant checkers for the paper's conservation laws, compiled
// into every build. Unlike BWPART_ASSERT — which guards programmer errors
// and always aborts — these checks validate *model* invariants (share
// vectors summing to one, Eq. 2 bandwidth conservation, allocation caps)
// and route failures through a replaceable handler so negative tests can
// assert that a deliberately seeded violation is caught without killing
// the process.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bwpart::check {

/// Tolerance for share-vector sums (beta is produced by normalization, so
/// only accumulated rounding error is acceptable).
inline constexpr double kShareSumTol = 1e-9;
/// Relative tolerance for bandwidth-conservation sums over measured
/// quantities (counter ratios; exact up to floating summation order).
inline constexpr double kAccountingRelTol = 1e-9;

struct Violation {
  std::string what;
  const char* file = nullptr;
  int line = 0;
};

/// Replaces the violation handler; returns the previous one. The default
/// handler prints the violation and aborts (invariant breakage in a
/// simulator is corruption, not a recoverable condition).
using Handler = void (*)(const Violation&);
Handler install_handler(Handler h);

/// Reports one violation through the installed handler.
void report(std::string what, const char* file, int line);

/// RAII capture of violations for negative tests: while alive, violations
/// are recorded instead of aborting; the previous handler is restored on
/// destruction. Only one Recorder may be alive at a time.
class Recorder {
 public:
  Recorder();
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  const std::vector<Violation>& violations() const;
  std::size_t count() const { return violations().size(); }
  /// True if any recorded violation message contains `needle`.
  bool caught(std::string_view needle) const;
  void clear();

 private:
  Handler previous_;
};

// ---------------------------------------------------------------------------
// Domain checkers. Each validates one executable contract from the paper and
// reports every violated clause. All are cheap (O(n) over a handful of
// apps) and sit on cold paths (phase boundaries, share installation).

/// A scheduler share vector: beta_i >= 0 and sum_i beta_i == 1 (the
/// denominator of the start-time-fair virtual clocks; a sum off by even
/// 1e-3 silently skews every enforcement experiment).
void share_vector(std::span<const double> beta, const char* where);

/// Liveness-aware form for churn runs: the share vector spans the app
/// superset but only `live` entries carry bandwidth. Dormant entries must be
/// exactly 0 (a departed app holding a share silently starves survivors),
/// live entries obey the usual beta_i >= 0 / sum == 1 contract — unless no
/// app is live at all, in which case the whole vector must be zero.
void share_vector_live(std::span<const double> beta,
                       std::span<const std::uint8_t> live, const char* where);

/// An analytic APC allocation against Eq. 2: 0 <= alloc_i <= cap_i and
/// sum_i alloc_i == min(b, sum_i cap_i) within `tol` (absolute, in APC).
void allocation(std::span<const double> alloc, std::span<const double> caps,
                double b, double tol, const char* where);

/// Measured bandwidth accounting: sum of per-app APC equals the total
/// utilized bandwidth B (Eq. 2 applied to counters).
void bandwidth_accounting(std::span<const double> per_app, double total,
                          const char* where);

}  // namespace bwpart::check
