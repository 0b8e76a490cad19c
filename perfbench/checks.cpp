#include "checks.hpp"

#include <algorithm>

namespace perfbench {

bool cholesky_succeeds(const CMatrix& k, double eps) {
  const std::size_t n = k.rows();
  CMatrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = k(j, j).real() + eps;
    for (std::size_t p = 0; p < j; ++p) diag -= std::norm(l(j, p));
    if (!(diag > 0.0)) return false;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      cdouble sum = k(i, j);
      for (std::size_t p = 0; p < j; ++p) sum -= l(i, p) * std::conj(l(j, p));
      l(i, j) = sum / ljj;
    }
  }
  return true;
}

double hermitian_defect(const CMatrix& k) {
  double worst = 0.0;
  for (std::size_t i = 0; i < k.rows(); ++i) {
    for (std::size_t j = 0; j < k.cols(); ++j) {
      worst = std::max(worst, std::abs(k(i, j) - std::conj(k(j, i))));
    }
  }
  return worst;
}

double relative_max_difference(const CMatrix& a, const CMatrix& b) {
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    diff = std::max(diff, std::abs(a.data()[i] - b.data()[i]));
    scale = std::max(scale, std::abs(b.data()[i]));
  }
  return diff / scale;
}

bool LruModel::access(std::size_t key) {
  if (const auto it = where_.find(key); it != where_.end()) {
    order_.splice(order_.begin(), order_, it->second);
    ++hits_;
    return true;
  }
  ++misses_;
  if (order_.size() == capacity_) {
    where_.erase(order_.back());
    order_.pop_back();
    ++evictions_;
  }
  order_.push_front(key);
  where_[key] = order_.begin();
  return false;
}

double j0_correlation_time(double fm, std::size_t span, int power) {
  double sum = 1.0;
  for (std::size_t d = 1; d < span; ++d) {
    const double rho = std::abs(bessel_j0(fm, static_cast<double>(d)));
    sum += 2.0 * (power == 2 ? rho * rho : rho);
  }
  return sum;
}

}  // namespace perfbench
