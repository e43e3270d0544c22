#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace portland {

void Accumulator::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

void Accumulator::reset() { *this = Accumulator(); }

std::uint64_t CounterSet::get(std::string_view name) const {
  const auto it = std::lower_bound(
      kCountersByName.begin(), kCountersByName.end(), name,
      [](Counter c, std::string_view n) { return counter_name(c) < n; });
  if (it == kCountersByName.end() || counter_name(*it) != name) return 0;
  return get(*it);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (p <= 0) return values.front();
  if (p >= 100) return values.back();
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

}  // namespace portland
