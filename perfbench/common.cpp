#include "common.hpp"

#include <sys/resource.h>

namespace perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

Clock::time_point process_start() { return kProcessStart; }

namespace {

/// D T D^H with D = diag(sqrt(p_i) e^{i phi_i}), T real symmetric Toeplitz
/// given by its first row; congruence keeps T's inertia.
CMatrix scaled_toeplitz(const std::vector<double>& row, SeedRng& rng) {
  const std::size_t n = row.size();
  std::vector<cdouble> d(n);
  for (cdouble& x : d) {
    x = std::polar(std::sqrt(rng.uniform(0.5, 2.0)), rng.uniform(0.0, 2.0 * M_PI));
  }
  CMatrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    k(i, i) = std::norm(d[i]);
    for (std::size_t j = i + 1; j < n; ++j) {
      k(i, j) = d[i] * row[j - i] * std::conj(d[j]);
      k(j, i) = std::conj(k(i, j));
    }
  }
  return k;
}

}  // namespace

CMatrix random_pd_covariance(std::size_t n, SeedRng& rng) {
  const double rho = rng.uniform(0.3, 0.9);
  std::vector<double> row(n);
  for (std::size_t d = 0; d < n; ++d) row[d] = std::pow(rho, static_cast<double>(d));
  return scaled_toeplitz(row, rng);
}

CMatrix random_indefinite_covariance(std::size_t n, SeedRng& rng) {
  // For L >= 3 and a >= 0.5 the boxcar's smallest eigenvalue is about
  // 1 - a - 0.22 a (2L + 1) < 0 once n spans a few L.
  const double a = rng.uniform(0.5, 0.8);
  const auto width = static_cast<std::size_t>(3 + rng.next() % 4);
  std::vector<double> row(n, 0.0);
  row[0] = 1.0;
  for (std::size_t d = 1; d <= width && d < n; ++d) row[d] = a;
  return scaled_toeplitz(row, rng);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::open(const char* name) {
  SpanRecord span;
  span.name = name;
  span.parent = open_stack_.empty() ? -1 : open_stack_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - process_start())
                      .count();
  spans_.push_back(std::move(span));
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  open_stack_.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           process_start())
          .count();
  open_stack_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

std::map<std::string, std::pair<double, double>> Tracer::total_and_self()
    const {
  // Children of one parent are recorded sequentially on one thread, so
  // their intervals never overlap and the covered part is their sum.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, std::pair<double, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t total = spans_[i].end_ns - spans_[i].start_ns;
    auto& entry = out[spans_[i].name];
    entry.first += static_cast<double>(total) * 1e-9;
    entry.second += static_cast<double>(total - child_ns[i]) * 1e-9;
  }
  return out;
}

namespace {

/// Proxy size, and its median time on the reference machine in a quiet
/// host phase (README): the time all normalised figures are scaled to.
constexpr std::size_t kProxyPoints = 8192;
constexpr double kProxyReferenceSeconds = 700e-6;

/// In-place iterative radix-2 DIT FFT.
void proxy_fft(std::vector<cdouble>& a) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * M_PI / static_cast<double>(len);
    const cdouble step(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      cdouble w = 1.0;
      for (std::size_t j = 0; j < len / 2; ++j) {
        const cdouble u = a[i + j];
        const cdouble v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= step;
      }
    }
  }
}

}  // namespace

HostSpeed::HostSpeed() : input_(kProxyPoints), work_(kProxyPoints) {
  for (std::size_t i = 0; i < kProxyPoints; ++i) {
    input_[i] = cdouble(static_cast<double>(i % 7), static_cast<double>(i % 5));
  }
}

void HostSpeed::sample() {
  // The first pass only brings the buffers back into cache after the
  // workload's round; the second, timed pass then measures the core's
  // speed alone, whatever the workload left in the caches.
  static volatile double sink = 0.0;
  work_ = input_;
  proxy_fft(work_);
  sink = sink + work_[1].real();
  const Clock::time_point t0 = Clock::now();
  work_ = input_;
  proxy_fft(work_);
  seconds_.push_back(seconds_between(t0, Clock::now()));
  sink = sink + work_[1].real();
}

double HostSpeed::proxy_seconds() const { return median(seconds_); }

double HostSpeed::factor() const {
  return proxy_seconds() / kProxyReferenceSeconds;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
