#pragma once

// Output checks computed apart from rfade: the benchmark's own estimators
// (sample covariance, lagged autocorrelation, level crossings, branch
// power), its own Cholesky and LRU model, and the analytic references
// (std::cyl_bessel_j, Rice's crossing rate, the lognormal moments).  None
// of them calls into rfade::stats, rfade::special or rfade::metrics.

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <list>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "rfade/numeric/matrix.hpp"

namespace perfbench {

template <typename T>
using Block = rfade::numeric::Matrix<std::complex<T>>;

/// Running sum of z z^H over rows of blocks (upper triangle).
class CovarianceEstimator {
 public:
  explicit CovarianceEstimator(std::size_t n) : n_(n), sum_(n * n) {}

  template <typename T>
  void add(const Block<T>& block) {
    for (std::size_t r = 0; r < block.rows(); ++r) {
      const std::complex<T>* row = block.data() + r * n_;
      for (std::size_t i = 0; i < n_; ++i) {
        const std::complex<double> zi(row[i].real(), row[i].imag());
        std::complex<double>* out = sum_.data() + i * n_;
        for (std::size_t j = i; j < n_; ++j) {
          out[j] += zi * std::complex<double>(row[j].real(), -row[j].imag());
        }
      }
    }
    count_ += block.rows();
  }

  [[nodiscard]] std::complex<double> estimate(std::size_t i,
                                              std::size_t j) const {
    return i <= j ? sum_[i * n_ + j] / static_cast<double>(count_)
                  : std::conj(sum_[j * n_ + i]) / static_cast<double>(count_);
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  std::size_t n_;
  std::vector<std::complex<double>> sum_;
  std::uint64_t count_ = 0;
};

/// Within-block lagged autocorrelation, pooled over branches:
/// rho(d) = sum z(t + d) conj z(t) / sum |z(t)|^2.
class AcfEstimator {
 public:
  explicit AcfEstimator(std::vector<std::size_t> lags)
      : lags_(std::move(lags)), lag_sum_(lags_.size()) {}

  template <typename T>
  void add(const Block<T>& block) {
    const std::size_t rows = block.rows();
    const std::size_t n = block.cols();
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t t = 0; t < rows; ++t) {
        power_ += std::norm(std::complex<double>(block(t, j).real(),
                                                 block(t, j).imag()));
      }
      for (std::size_t k = 0; k < lags_.size(); ++k) {
        const std::size_t d = lags_[k];
        std::complex<double> sum = 0.0;
        for (std::size_t t = 0; t + d < rows; ++t) {
          const std::complex<double> a(block(t + d, j).real(),
                                       block(t + d, j).imag());
          const std::complex<double> b(block(t, j).real(), block(t, j).imag());
          sum += a * std::conj(b);
        }
        lag_sum_[k] += sum;
      }
    }
    samples_ += rows * n;
  }

  [[nodiscard]] double rho(std::size_t k) const {
    return lag_sum_[k].real() / power_;
  }
  [[nodiscard]] const std::vector<std::size_t>& lags() const noexcept {
    return lags_;
  }
  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

 private:
  std::vector<std::size_t> lags_;
  std::vector<std::complex<double>> lag_sum_;
  double power_ = 0.0;
  std::uint64_t samples_ = 0;
};

/// Up-crossings r[t-1] < level <= r[t] of each branch envelope, carried
/// across consecutive blocks of one timeline.
class CrossingCounter {
 public:
  explicit CrossingCounter(std::vector<double> levels)
      : levels_(std::move(levels)), below_(levels_.size(), false) {}

  void add(const CMatrix& block) {
    for (std::size_t t = 0; t < block.rows(); ++t) {
      for (std::size_t j = 0; j < levels_.size(); ++j) {
        const bool below = std::abs(block(t, j)) < levels_[j];
        if (!below && below_[j]) ++crossings_;
        below_[j] = below;
      }
    }
  }
  [[nodiscard]] std::uint64_t crossings() const noexcept { return crossings_; }

 private:
  std::vector<double> levels_;
  std::vector<bool> below_;
  std::uint64_t crossings_ = 0;
};

/// Per-branch running sum of |z|^2.
class PowerEstimator {
 public:
  explicit PowerEstimator(std::size_t n) : sum_(n, 0.0) {}
  void add(const CMatrix& block) {
    for (std::size_t t = 0; t < block.rows(); ++t) {
      for (std::size_t j = 0; j < sum_.size(); ++j) {
        sum_[j] += std::norm(block(t, j));
      }
    }
    rows_ += block.rows();
  }
  [[nodiscard]] double mean(std::size_t j) const {
    return sum_[j] / static_cast<double>(rows_);
  }
  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }

 private:
  std::vector<double> sum_;
  std::uint64_t rows_ = 0;
};

/// True when the Cholesky factorisation of \p k + eps I runs to the end
/// with positive pivots (the benchmark's own LL^H, not rfade's).
bool cholesky_succeeds(const CMatrix& k, double eps);

/// Largest |k_ij - conj(k_ji)|.
double hermitian_defect(const CMatrix& k);

/// Largest |a_ij - b_ij| over the largest |b_ij|.
double relative_max_difference(const CMatrix& a, const CMatrix& b);

/// Byte-for-byte equality of two blocks.
template <typename T>
bool bit_identical(const rfade::numeric::Matrix<T>& a,
                   const rfade::numeric::Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// LRU model of a plan cache with \p capacity entries over integer keys.
class LruModel {
 public:
  explicit LruModel(std::size_t capacity) : capacity_(capacity) {}

  /// Touch \p key; returns true on a hit.
  bool access(std::size_t key);

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  std::size_t capacity_;
  std::list<std::size_t> order_;  ///< front = most recent
  std::unordered_map<std::size_t, std::list<std::size_t>::iterator> where_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// J0(2 pi fm d) from the C++17 special functions.
inline double bessel_j0(double fm, double d) {
  return std::cyl_bessel_j(0.0, 2.0 * M_PI * fm * d);
}

/// Correlation time sum_{|d| < span} rho(d)^p of a J0-correlated process
/// (p = 2: the variance factor of a second-moment estimate; p = 1 with
/// |rho|: of a first-moment estimate).
double j0_correlation_time(double fm, std::size_t span, int power);

}  // namespace perfbench
