#pragma once
// Streaming summary statistics + fixed-bin histogram.  Used for chunk
// length distributions, quality-score distributions, retrieval
// similarity diagnostics and the median of measured serve tile times.

#include <cstddef>
#include <string>
#include <vector>

namespace mcqa::util {

class SummaryStats {
 public:
  void add(double x);
  void merge(const SummaryStats& other);

  std::size_t count() const { return count_; }
  double mean() const;
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t total() const { return total_; }
  const SummaryStats& stats() const { return stats_; }

  /// Approximate quantile from bin midpoints, q in [0,1].
  double quantile(double q) const;

  /// Exact quantile over the retained samples (nearest-rank: the
  /// ceil(q*n)-th smallest, with q=0 mapping to the minimum).  Unlike
  /// quantile(), this does not round to a bin midpoint, so a median or
  /// tail of measured times is one of the measured values.  Returns 0.0
  /// on an empty histogram (never NaN); with one sample every q returns
  /// that sample.
  double exact_quantile(double q) const;
  double p50() const { return exact_quantile(0.50); }
  double p95() const { return exact_quantile(0.95); }
  double p99() const { return exact_quantile(0.99); }
  /// Nearest-rank p99.9: the maximum until the sample count reaches 1000.
  double p999() const { return exact_quantile(0.999); }

  /// Simple ASCII rendering for bench output.
  std::string render(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  SummaryStats stats_;
  /// Raw samples backing exact_quantile(); sorted lazily on access.
  mutable std::vector<double> samples_;
  mutable bool samples_sorted_ = true;
};

}  // namespace mcqa::util
