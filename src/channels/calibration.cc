#include "channels/calibration.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ich
{

Calibration
Calibration::fit(const std::vector<int> &labels,
                 const std::vector<double> &tp_us, int num_labels)
{
    if (labels.size() != tp_us.size() || labels.empty())
        throw std::invalid_argument("Calibration::fit: bad training data");

    Calibration cal;
    std::vector<double> sum(num_labels, 0.0);
    std::vector<double> sum_sq(num_labels, 0.0);
    std::vector<int> n(num_labels, 0);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        int s = labels[i];
        if (s < 0 || s >= num_labels)
            throw std::invalid_argument("Calibration::fit: bad label");
        sum[s] += tp_us[i];
        sum_sq[s] += tp_us[i] * tp_us[i];
        ++n[s];
    }
    cal.means_.resize(num_labels);
    cal.stddevs_.resize(num_labels);
    for (int s = 0; s < num_labels; ++s) {
        if (n[s] == 0)
            throw std::invalid_argument(
                "Calibration::fit: label missing from training set");
        cal.means_[s] = sum[s] / n[s];
        double var = sum_sq[s] / n[s] - cal.means_[s] * cal.means_[s];
        cal.stddevs_[s] = var > 0.0 ? std::sqrt(var) : 0.0;
    }
    return cal;
}

int
Calibration::decode(double tp_us) const
{
    int best = 0;
    double best_dist = std::numeric_limits<double>::max();
    for (std::size_t s = 0; s < means_.size(); ++s) {
        double d = std::fabs(tp_us - means_[s]);
        if (d < best_dist) {
            best_dist = d;
            best = static_cast<int>(s);
        }
    }
    return best;
}

double
Calibration::minSeparationUs() const
{
    std::vector<double> sorted = means_;
    std::sort(sorted.begin(), sorted.end());
    double min_gap = std::numeric_limits<double>::max();
    for (std::size_t s = 1; s < sorted.size(); ++s)
        min_gap = std::min(min_gap, sorted[s] - sorted[s - 1]);
    return min_gap;
}

} // namespace ich
