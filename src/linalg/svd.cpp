#include "linalg/svd.hpp"

#include "foundation/check.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace illixr {

SvdResult
jacobiSvd(const MatX &a, int max_sweeps)
{
    ILLIXR_CHECK(a.rows() >= a.cols(), "jacobiSvd: fewer rows than columns");
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();

    MatX u = a;                    // Columns rotated toward orthogonality.
    MatX v = MatX::identity(n);
    SvdResult result;

    const double eps = 1e-14;
    bool converged = false;
    for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
        converged = true;
        for (std::size_t p = 0; p + 1 < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                // Compute the 2x2 Gram submatrix for columns p, q.
                double app = 0.0, aqq = 0.0, apq = 0.0;
                for (std::size_t i = 0; i < m; ++i) {
                    app += u(i, p) * u(i, p);
                    aqq += u(i, q) * u(i, q);
                    apq += u(i, p) * u(i, q);
                }
                if (std::fabs(apq) <= eps * std::sqrt(app * aqq))
                    continue;
                converged = false;
                // Jacobi rotation annihilating the off-diagonal term.
                const double tau = (aqq - app) / (2.0 * apq);
                const double t = (tau >= 0.0)
                    ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                    : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
                const double c = 1.0 / std::sqrt(1.0 + t * t);
                const double s = c * t;
                for (std::size_t i = 0; i < m; ++i) {
                    const double up = u(i, p);
                    const double uq = u(i, q);
                    u(i, p) = c * up - s * uq;
                    u(i, q) = s * up + c * uq;
                }
                for (std::size_t i = 0; i < n; ++i) {
                    const double vp = v(i, p);
                    const double vq = v(i, q);
                    v(i, p) = c * vp - s * vq;
                    v(i, q) = s * vp + c * vq;
                }
            }
        }
    }

    // Extract singular values as column norms and normalize U.
    VecX s(n);
    for (std::size_t j = 0; j < n; ++j) {
        double norm_sq = 0.0;
        for (std::size_t i = 0; i < m; ++i)
            norm_sq += u(i, j) * u(i, j);
        s[j] = std::sqrt(norm_sq);
        if (s[j] > 0.0) {
            for (std::size_t i = 0; i < m; ++i)
                u(i, j) /= s[j];
        }
    }

    // Sort descending by singular value.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&s](std::size_t i, std::size_t j) { return s[i] > s[j]; });

    SvdResult sorted;
    sorted.u = MatX(m, n);
    sorted.v = MatX(n, n);
    sorted.s = VecX(n);
    for (std::size_t j = 0; j < n; ++j) {
        sorted.s[j] = s[order[j]];
        for (std::size_t i = 0; i < m; ++i)
            sorted.u(i, j) = u(i, order[j]);
        for (std::size_t i = 0; i < n; ++i)
            sorted.v(i, j) = v(i, order[j]);
    }
    sorted.converged = converged;
    return sorted;
}

double
conditionNumber(const SvdResult &svd)
{
    if (svd.s.size() == 0)
        return std::numeric_limits<double>::infinity();
    const double smin = svd.s[svd.s.size() - 1];
    if (smin == 0.0)
        return std::numeric_limits<double>::infinity();
    return svd.s[0] / smin;
}

} // namespace illixr
