#include "linalg/svd_update.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "engine/thread_pool.h"
#include "engine/tuning.h"
#include "linalg/ops.h"
#include "linalg/svd.h"

namespace netdiag {
namespace {

matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = dist(rng);
    return m;
}

matrix append_row_to_matrix(const matrix& y, const vec& row) {
    matrix out(y.rows() + 1, y.cols());
    for (std::size_t r = 0; r < y.rows(); ++r) out.set_row(r, y.row(r));
    out.set_row(y.rows(), row);
    return out;
}

TEST(SvdUpdate, RightSvdOfMatchesFullSvd) {
    const matrix y = random_matrix(12, 5, 1);
    const right_svd rs = right_svd_of(y);
    const svd_result full = svd(y);
    ASSERT_EQ(rs.s.size(), full.s.size());
    for (std::size_t i = 0; i < rs.s.size(); ++i) EXPECT_NEAR(rs.s[i], full.s[i], 1e-10);
}

TEST(SvdUpdate, AppendRowMatchesRecomputedSvd) {
    const matrix y = random_matrix(20, 6, 2);
    const matrix row_mat = random_matrix(1, 6, 3);
    const vec new_row(row_mat.row(0).begin(), row_mat.row(0).end());

    const right_svd updated = append_row(right_svd_of(y), new_row, 6);
    const right_svd recomputed = right_svd_of(append_row_to_matrix(y, new_row));

    ASSERT_GE(updated.s.size(), recomputed.s.size());
    for (std::size_t i = 0; i < recomputed.s.size(); ++i) {
        EXPECT_NEAR(updated.s[i], recomputed.s[i], 1e-8) << "singular value " << i;
    }
}

TEST(SvdUpdate, RowInsideSpanDoesNotGrowRank) {
    // All rows lie in a 2D row space; appending another such row must keep
    // the spectrum at rank 2.
    matrix y(6, 4, 0.0);
    for (std::size_t r = 0; r < 6; ++r) {
        y(r, 0) = static_cast<double>(r + 1);
        y(r, 1) = static_cast<double>(2 * r);
        y(r, 2) = y(r, 0) + y(r, 1);
        y(r, 3) = y(r, 0) - y(r, 1);
    }
    const right_svd base = right_svd_of(y);
    vec row{1.0, 2.0, 3.0, -1.0};  // = col-pattern of the same 2D space
    const right_svd updated = append_row(base, row, 4);
    std::size_t nonzero = 0;
    for (double s : updated.s) {
        if (s > 1e-8) ++nonzero;
    }
    EXPECT_EQ(nonzero, 2u);
}

TEST(SvdUpdate, TruncationKeepsLargestComponents) {
    const matrix y = random_matrix(15, 5, 4);
    const vec row(5, 0.5);
    const right_svd updated = append_row(right_svd_of(y), row, 3);
    EXPECT_EQ(updated.s.size(), 3u);
    EXPECT_EQ(updated.v.cols(), 3u);
    for (std::size_t i = 0; i + 1 < updated.s.size(); ++i) {
        EXPECT_GE(updated.s[i], updated.s[i + 1]);
    }
}

TEST(SvdUpdate, UpdatedBasisStaysOrthonormal) {
    const matrix y = random_matrix(10, 4, 5);
    right_svd state = right_svd_of(y);
    std::mt19937_64 rng(6);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (int step = 0; step < 8; ++step) {
        vec row(4);
        for (double& v : row) v = dist(rng);
        state = append_row(state, row, 4);
    }
    const matrix vtv = multiply(transpose(state.v), state.v);
    EXPECT_TRUE(approx_equal(vtv, matrix::identity(state.v.cols()), 1e-8));
}

TEST(SvdUpdate, SizeMismatchThrows) {
    const right_svd state = right_svd_of(random_matrix(5, 3, 7));
    const vec bad(4, 1.0);
    EXPECT_THROW(append_row(state, bad, 3), std::invalid_argument);
}

TEST(SvdUpdate, ZeroMaxRankThrows) {
    const right_svd state = right_svd_of(random_matrix(5, 3, 8));
    const vec row(3, 1.0);
    EXPECT_THROW(append_row(state, row, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Parallel bootstrap SVD parity across thread counts.
// ---------------------------------------------------------------------------

TEST(SvdUpdateParallel, RightSvdOfBitIdenticalAcrossThreadCounts) {
    const scoped_tuning guard;
    global_tuning().svd_parallel_min_rows = 8;
    global_tuning().parallel_min_hardware = 1;

    const matrix y = random_matrix(90, 12, 41);
    const right_svd serial = right_svd_of(y);
    for (std::size_t threads : {1u, 2u, 8u}) {
        thread_pool pool(threads);
        const right_svd pooled = right_svd_of(y, &pool);
        ASSERT_EQ(pooled.s, serial.s) << "threads=" << threads;
        ASSERT_EQ(pooled.v, serial.v) << "threads=" << threads;
    }
}

}  // namespace
}  // namespace netdiag
