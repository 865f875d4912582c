#include "linalg/svd_update.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/ops.h"
#include "linalg/svd.h"
#include "linalg/vector_ops.h"

namespace netdiag {

right_svd right_svd_of(const matrix& y) { return right_svd_of(y, nullptr); }

right_svd right_svd_of(const matrix& y, thread_pool* pool) {
    svd_result f = svd(y, pool);
    return {std::move(f.s), std::move(f.v)};
}

right_svd append_row(const right_svd& current, std::span<const double> y, std::size_t max_rank) {
    const std::size_t m = current.v.rows();
    const std::size_t k = current.v.cols();
    if (y.size() != m) throw std::invalid_argument("append_row: row size mismatch");
    if (max_rank == 0) throw std::invalid_argument("append_row: max_rank must be positive");

    // Split y into its component inside span(V) and the residual direction.
    vec p(k, 0.0);
    for (std::size_t j = 0; j < k; ++j) {
        double acc = 0.0;
        for (std::size_t r = 0; r < m; ++r) acc += current.v(r, j) * y[r];
        p[j] = acc;
    }

    vec resid(m, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
        double acc = y[r];
        for (std::size_t j = 0; j < k; ++j) acc -= p[j] * current.v(r, j);
        resid[r] = acc;
    }
    const double rho = norm(resid);

    const bool grow = rho > 1e-12 * std::max(norm(y), 1.0);
    const std::size_t kk = k + (grow ? 1 : 0);

    // Small core matrix K = [diag(s) 0; p^T rho]; Y' = blockdiag(U,1) K [V r]^T.
    matrix kfull(kk + 1, kk, 0.0);
    for (std::size_t j = 0; j < k; ++j) kfull(j, j) = current.s[j];
    for (std::size_t j = 0; j < k; ++j) kfull(kk, j) = p[j];
    if (grow) kfull(kk, k) = rho;

    const svd_result ks = svd(kfull);

    // New right basis: [V r_hat] * V_K, truncated to max_rank.
    matrix basis(m, kk, 0.0);
    for (std::size_t c = 0; c < k; ++c) {
        for (std::size_t r = 0; r < m; ++r) basis(r, c) = current.v(r, c);
    }
    if (grow) {
        for (std::size_t r = 0; r < m; ++r) basis(r, k) = resid[r] / rho;
    }

    const std::size_t keep = std::min({max_rank, kk, ks.s.size()});
    right_svd out;
    out.s.assign(ks.s.begin(), ks.s.begin() + static_cast<std::ptrdiff_t>(keep));
    out.v.assign(m, keep, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t j = 0; j < keep; ++j) {
            double acc = 0.0;
            for (std::size_t c = 0; c < kk; ++c) acc += basis(r, c) * ks.v(c, j);
            out.v(r, j) = acc;
        }
    }
    return out;
}

}  // namespace netdiag
