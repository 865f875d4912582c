// Incremental (rank-1) row update of a thin SVD.
//
// Section 7.1 of the paper notes that for larger measurement ensembles the
// periodic full SVD could become a bottleneck and points to incremental
// update algorithms (Brand-style). This module maintains the right singular
// subspace (the part the subspace method actually uses: the principal axes
// V and the singular values) as new measurement rows arrive.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace netdiag {

class thread_pool;

// Right singular structure of a data matrix: Y ~ U diag(s) V^T.
// Only s and V are kept; the subspace method never needs U.
struct right_svd {
    std::vector<double> s;  // singular values, descending
    matrix v;               // cols(Y) x k, orthonormal columns
};

// Initialize from a full data matrix (wraps svd()). A non-null pool shards
// the Jacobi inner loops (bit-identical for every pool size; see svd).
right_svd right_svd_of(const matrix& y);
right_svd right_svd_of(const matrix& y, thread_pool* pool);

// Update (s, V) after appending row y to the data matrix, keeping at most
// max_rank components (the smallest is dropped if the update would exceed
// it). Throws std::invalid_argument if y's size differs from V's rows.
// Serial: the update costs O(m k) plus a (k+1)-square core SVD, far below
// what pays for a pool dispatch at the stream sizes it serves.
right_svd append_row(const right_svd& current, std::span<const double> y, std::size_t max_rank);

}  // namespace netdiag
