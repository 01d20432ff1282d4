#include "linalg/decomp.hpp"

#include "foundation/check.hpp"
#include "foundation/simd.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace illixr {

namespace {

/** Work threshold for column-parallel solves (flops-ish). */
constexpr std::size_t kSolveParallelFlops = 64 * 1024;

} // namespace

Cholesky::Cholesky(const MatX &a)
{
    assert(a.rows() == a.cols());
    const std::size_t n = a.rows();
    l_ = MatX(n, n);
    ok_ = true;
    for (std::size_t j = 0; j < n; ++j) {
        double diag = a(j, j);
        for (std::size_t k = 0; k < j; ++k)
            diag -= l_(j, k) * l_(j, k);
        if (diag <= 0.0) {
            ok_ = false;
            return;
        }
        l_(j, j) = std::sqrt(diag);
        for (std::size_t i = j + 1; i < n; ++i) {
            double acc = a(i, j);
            for (std::size_t k = 0; k < j; ++k)
                acc -= l_(i, k) * l_(j, k);
            l_(i, j) = acc / l_(j, j);
        }
    }
}

VecX
Cholesky::solve(const VecX &b) const
{
    const VecX y = forwardSubstitute(l_, b);
    // Back substitution with L^T without forming the transpose.
    const std::size_t n = l_.rows();
    VecX x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = y[ii];
        for (std::size_t j = ii + 1; j < n; ++j)
            acc -= l_(j, ii) * x[j];
        x[ii] = acc / l_(ii, ii);
    }
    return x;
}

MatX
Cholesky::solve(const MatX &b) const
{
    MatX x(b.rows(), b.cols());
    // Right-hand-side columns are independent solves; the MSCKF gain
    // computation (S K^T = (P H^T)^T) tiles over them.
    auto cols_kernel = [&](std::size_t cb, std::size_t ce) {
        VecX col(b.rows());
        for (std::size_t c = cb; c < ce; ++c) {
            for (std::size_t r = 0; r < b.rows(); ++r)
                col[r] = b(r, c);
            const VecX sol = solve(col);
            for (std::size_t r = 0; r < b.rows(); ++r)
                x(r, c) = sol[r];
        }
    };
    if (b.cols() * b.rows() * b.rows() >= kSolveParallelFlops)
        parallelFor("chol_solve", 0, b.cols(), 4, cols_kernel);
    else
        cols_kernel(0, b.cols());
    return x;
}

double
Cholesky::logDeterminant() const
{
    double acc = 0.0;
    for (std::size_t i = 0; i < l_.rows(); ++i)
        acc += std::log(l_(i, i));
    return 2.0 * acc;
}

HouseholderQR::HouseholderQR(const MatX &a)
    : qr_(a), m_(a.rows()), n_(a.cols())
{
    const std::size_t steps = std::min(m_ > 0 ? m_ - 1 : 0, n_);
    tau_.assign(steps, 0.0);
    // Panel of per-column dot accumulators for the trailing update
    // (arena scratch, reused across reflectors).
    ArenaFrame scratch;
    double *dot = n_ > 0 ? scratch.alloc<double>(n_) : nullptr;
    for (std::size_t k = 0; k < steps; ++k) {
        // Compute the Householder reflector for column k.
        double norm_sq = 0.0;
        for (std::size_t i = k; i < m_; ++i)
            norm_sq += qr_(i, k) * qr_(i, k);
        const double norm = std::sqrt(norm_sq);
        if (norm == 0.0) {
            tau_[k] = 0.0;
            continue;
        }
        const double alpha = (qr_(k, k) >= 0.0) ? -norm : norm;
        const double v0 = qr_(k, k) - alpha;
        // v = (v0, a[k+1..m-1, k]); normalize so v[0] = 1.
        tau_[k] = -v0 / alpha; // 2 / (v^T v) * v0^2 / v0^2 simplification
        if (v0 == 0.0) {
            tau_[k] = 0.0;
            qr_(k, k) = alpha;
            continue;
        }
        for (std::size_t i = k + 1; i < m_; ++i)
            qr_(i, k) /= v0;
        qr_(k, k) = alpha;
        // Apply the reflector to the trailing columns via row-major
        // panel passes: dot[j] accumulates over i ASCENDING exactly
        // like the former j-outer column sweeps, so results are
        // bit-identical to them (VIO-path contract, DESIGN.md "SIMD &
        // data layout") while every inner loop is contiguous and
        // vector-wide.
        const std::size_t jb = k + 1;
        if (jb >= n_)
            continue;
        const std::size_t nj = n_ - jb;
        double *panel = dot;
        const double *qdata = qr_.data();
        double *qmut = qr_.data();
        using simd::VecD4;
        for (std::size_t jj = 0; jj < nj; ++jj)
            panel[jj] = qdata[k * n_ + jb + jj];
        for (std::size_t i = k + 1; i < m_; ++i) {
            // No zero-skip here: the original accumulated every term
            // unconditionally, and +-0 products are sign-significant.
            const double cs = qdata[i * n_ + k];
            const double *row = qdata + i * n_ + jb;
            if constexpr (simd::backendId() == 0) {
                // Scalar backend: the plain loop optimizes better
                // than the lane-array emulation; identical sums.
                for (std::size_t jj = 0; jj < nj; ++jj)
                    panel[jj] += row[jj] * cs;
                continue;
            }
            const VecD4 c = VecD4::broadcast(cs);
            std::size_t jj = 0;
            for (; jj + 4 <= nj; jj += 4)
                simd::madd(VecD4::load(panel + jj),
                           VecD4::load(row + jj), c)
                    .store(panel + jj);
            for (; jj < nj; ++jj)
                panel[jj] += row[jj] * cs;
        }
        {
            const double t = tau_[k];
            for (std::size_t jj = 0; jj < nj; ++jj)
                panel[jj] *= t;
        }
        for (std::size_t jj = 0; jj < nj; ++jj)
            qmut[k * n_ + jb + jj] -= panel[jj];
        for (std::size_t i = k + 1; i < m_; ++i) {
            const double cs = qdata[i * n_ + k];
            double *row = qmut + i * n_ + jb;
            if constexpr (simd::backendId() == 0) {
                for (std::size_t jj = 0; jj < nj; ++jj)
                    row[jj] -= cs * panel[jj];
                continue;
            }
            const VecD4 c = VecD4::broadcast(cs);
            std::size_t jj = 0;
            for (; jj + 4 <= nj; jj += 4)
                (VecD4::load(row + jj) -
                 c * VecD4::load(panel + jj))
                    .store(row + jj);
            for (; jj < nj; ++jj)
                row[jj] -= cs * panel[jj];
        }
    }
}

MatX
HouseholderQR::matrixR() const
{
    const std::size_t rrows = std::min(m_, n_);
    MatX r(rrows, n_);
    for (std::size_t i = 0; i < rrows; ++i)
        for (std::size_t j = i; j < n_; ++j)
            r(i, j) = qr_(i, j);
    return r;
}

VecX
HouseholderQR::applyQT(const VecX &v) const
{
    assert(v.size() == m_);
    VecX r = v;
    for (std::size_t k = 0; k < tau_.size(); ++k) {
        if (tau_[k] == 0.0)
            continue;
        double dot = r[k];
        for (std::size_t i = k + 1; i < m_; ++i)
            dot += qr_(i, k) * r[i];
        dot *= tau_[k];
        r[k] -= dot;
        for (std::size_t i = k + 1; i < m_; ++i)
            r[i] -= qr_(i, k) * dot;
    }
    return r;
}

MatX
HouseholderQR::applyQT(const MatX &b) const
{
    assert(b.rows() == m_);
    MatX r = b;
    // Columns are independent: applying every reflector (in k order)
    // to one column never reads another, so swapping the loop nest to
    // column-outer is bit-identical and tiles over columns.
    auto cols_kernel = [&](std::size_t jb, std::size_t je) {
        for (std::size_t j = jb; j < je; ++j) {
            for (std::size_t k = 0; k < tau_.size(); ++k) {
                if (tau_[k] == 0.0)
                    continue;
                double dot = r(k, j);
                for (std::size_t i = k + 1; i < m_; ++i)
                    dot += qr_(i, k) * r(i, j);
                dot *= tau_[k];
                r(k, j) -= dot;
                for (std::size_t i = k + 1; i < m_; ++i)
                    r(i, j) -= qr_(i, k) * dot;
            }
        }
    };
    if (b.cols() * m_ * std::max<std::size_t>(tau_.size(), 1) >=
        kSolveParallelFlops)
        parallelFor("qr_applyqt", 0, b.cols(), 4, cols_kernel);
    else
        cols_kernel(0, b.cols());
    return r;
}

VecX
HouseholderQR::solve(const VecX &b) const
{
    assert(m_ >= n_);
    const VecX qtb = applyQT(b);
    VecX x(n_);
    for (std::size_t ii = n_; ii-- > 0;) {
        double acc = qtb[ii];
        for (std::size_t j = ii + 1; j < n_; ++j)
            acc -= qr_(ii, j) * x[j];
        x[ii] = acc / qr_(ii, ii);
    }
    return x;
}

std::size_t
HouseholderQR::rank(double rel_tol) const
{
    const std::size_t k = std::min(m_, n_);
    double max_diag = 0.0;
    for (std::size_t i = 0; i < k; ++i)
        max_diag = std::max(max_diag, std::fabs(qr_(i, i)));
    if (max_diag == 0.0)
        return 0;
    std::size_t r = 0;
    for (std::size_t i = 0; i < k; ++i) {
        if (std::fabs(qr_(i, i)) > rel_tol * max_diag)
            ++r;
    }
    return r;
}

VecX
luSolve(const MatX &a, const VecX &b)
{
    ILLIXR_CHECK(a.rows() == a.cols() && a.rows() == b.size(),
                 "luSolve: a must be square and match b");
    const std::size_t n = a.rows();
    MatX lu = a;
    VecX x = b;
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = i;

    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r) {
            if (std::fabs(lu(r, col)) > std::fabs(lu(pivot, col)))
                pivot = r;
        }
        if (pivot != col) {
            for (std::size_t j = 0; j < n; ++j)
                std::swap(lu(col, j), lu(pivot, j));
            std::swap(x[col], x[pivot]);
        }
        const double diag = lu(col, col);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = lu(r, col) / diag;
            lu(r, col) = factor;
            for (std::size_t j = col + 1; j < n; ++j)
                lu(r, j) -= factor * lu(col, j);
            x[r] -= factor * x[col];
        }
    }
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = x[ii];
        for (std::size_t j = ii + 1; j < n; ++j)
            acc -= lu(ii, j) * x[j];
        x[ii] = acc / lu(ii, ii);
    }
    return x;
}

MatX
luInverse(const MatX &a)
{
    const std::size_t n = a.rows();
    MatX inv(n, n);
    VecX e(n);
    for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t i = 0; i < n; ++i)
            e[i] = (i == c) ? 1.0 : 0.0;
        const VecX col = luSolve(a, e);
        for (std::size_t i = 0; i < n; ++i)
            inv(i, c) = col[i];
    }
    return inv;
}

VecX
forwardSubstitute(const MatX &l, const VecX &b)
{
    ILLIXR_CHECK(l.rows() == l.cols() && l.rows() == b.size(),
                 "forwardSubstitute: l must be square and match b");
    const std::size_t n = l.rows();
    VecX y(n);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (std::size_t j = 0; j < i; ++j)
            acc -= l(i, j) * y[j];
        y[i] = acc / l(i, i);
    }
    return y;
}

VecX
backSubstitute(const MatX &u, const VecX &y)
{
    ILLIXR_CHECK(u.rows() == u.cols() && u.rows() == y.size(),
                 "backSubstitute: u must be square and match y");
    const std::size_t n = u.rows();
    VecX x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = y[ii];
        for (std::size_t j = ii + 1; j < n; ++j)
            acc -= u(ii, j) * x[j];
        x[ii] = acc / u(ii, ii);
    }
    return x;
}

MatX
leftNullspaceTranspose(const MatX &hf)
{
    // QR of Hf: Q = [Q1 Q2]; the left nullspace is spanned by Q2.
    // We return Q2^T computed by applying Q^T to the identity and
    // keeping the bottom (m - rank) rows.
    const std::size_t m = hf.rows();
    const std::size_t n = hf.cols();
    assert(m > n);
    HouseholderQR qr(hf);
    const MatX qt = qr.applyQT(MatX::identity(m));
    return qt.block(n, 0, m - n, m);
}

} // namespace illixr
