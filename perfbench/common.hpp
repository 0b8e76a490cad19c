#pragma once

// Shared plumbing of the end-to-end benchmark: clocks, the span recorder
// of the traced mode, the benchmark's own seeded generator (specs and
// tenant seeds come from it, never from rfade), summary statistics and
// the per-run report.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rfade/numeric/matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using rfade::numeric::cdouble;
using rfade::numeric::CMatrix;

/// Seconds between two clock readings.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Clock reading taken during static initialisation, before main(): the
/// origin of every run's cold set-up time.
Clock::time_point process_start();

// --- seeded generator ---------------------------------------------------------

/// splitmix64: the benchmark's own generator for workload inputs.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Standard normal (Box-Muller).
  double gaussian() {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  }
  cdouble complex_gaussian() { return {gaussian(), gaussian()}; }

 private:
  std::uint64_t state_;
};

/// Independent child seed of (\p seed, \p salt).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  SeedRng rng(seed ^ (salt * 0xD1B54A32D192ED03ULL));
  rng.next();
  return rng.next();
}

/// Seeded positive-definite covariance of dimension \p n: exponential
/// (Kac-Murdock-Szego) correlation rho^|i-j| with seeded rho, per-branch
/// phases and branch powers in [0.5, 2].
CMatrix random_pd_covariance(std::size_t n, SeedRng& rng);

/// Seeded indefinite Hermitian target of dimension \p n: unit diagonal
/// plus a boxcar of equal correlations a within distance L, whose
/// Dirichlet-kernel spectrum dips below zero -- as an over-constrained
/// measured correlation matrix does -- under seeded phases and powers.
CMatrix random_indefinite_covariance(std::size_t n, SeedRng& rng);

// --- statistics ---------------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1] of \p values (copied).
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// --- traced mode ----------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 for a root
};

/// In-memory span list of the traced mode.  Spans are recorded by the
/// benchmark's own code around its calls into rfade; nothing is recorded
/// when tracing is off, so untraced runs pay one branch per call site.
class Tracer {
 public:
  static Tracer& instance();

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  std::int64_t open(const char* name);
  void close(std::int64_t index);
  void rename(std::int64_t index, const char* name) {
    spans_[static_cast<std::size_t>(index)].name = name;
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  /// Durations (seconds) of every span called \p name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Per-name total and self time (seconds): self = duration minus the
  /// union of its children's intervals.
  [[nodiscard]] std::map<std::string, std::pair<double, double>>
  total_and_self() const;

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_stack_;
};

/// RAII span; a no-op unless the Tracer is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(Tracer::instance().enabled() ? Tracer::instance().open(name)
                                             : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::instance().close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Rename the span once its outcome is known (e.g. a cache hit).
  void rename(const char* name) {
    if (index_ >= 0) Tracer::instance().rename(index_, name);
  }

 private:
  std::int64_t index_;
};

// --- host speed -----------------------------------------------------------------

/// Speed of the host while a run measures.  On a shared VM the same work
/// runs up to 1.5x slower for minutes at a time (README, machine
/// context), and every kernel slows alike.  The benchmark therefore times
/// a fixed proxy of its own -- a radix-2 FFT that never changes with
/// rfade -- between rounds, and scales the run's timings to the proxy's
/// reference time, so that runs taken in slow and fast host phases
/// compare.
class HostSpeed {
 public:
  HostSpeed();
  /// Time the proxy once (call between timed sections).
  void sample();
  /// Median proxy time over the reference proxy time: > 1 when the host
  /// ran slow.
  [[nodiscard]] double factor() const;
  [[nodiscard]] double proxy_seconds() const;

 private:
  std::vector<cdouble> input_;
  std::vector<cdouble> work_;
  std::vector<double> seconds_;
};

// --- report ---------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.  metrics holds the end-to-end metrics of
/// an untraced run or the per-layer metrics of a traced one; info holds
/// reference figures (tails, counts, check details) that go to the result
/// file and stderr only.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  [[nodiscard]] bool correct() const { return check_failures.empty(); }
};

/// Resident-set high-water mark of this process, MiB.
double peak_rss_mib();

}  // namespace perfbench
