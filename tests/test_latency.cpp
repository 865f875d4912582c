// Ingest-to-applied latency accounting: the histogram percentile edges
// the serving layer leans on, the engine's monotone clock shim
// (deterministic latency under an injected tick source), and the pool's
// runtime no-waiting-in-jobs gate. This binary runs under the
// ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <random>
#include <stdexcept>
#include <vector>

#include "engine/clock.h"
#include "engine/thread_pool.h"
#include "serve/stream_server.h"
#include "stats/histogram.h"

namespace netdiag {
namespace {

// ---------------------------------------------------------------------------
// Histogram: the incremental record/percentile face.
// ---------------------------------------------------------------------------

TEST(HistogramPercentile, EmptyHistogramReportsZeroAtEveryQuantile) {
    const histogram h{0.0, 10.0, std::vector<std::size_t>(10, 0)};
    EXPECT_EQ(h.percentile(0.0), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.percentile(1.0), 0.0);
}

TEST(HistogramPercentile, RecordOnHistogramWithNoBinsThrows) {
    histogram h;
    EXPECT_THROW(h.record(0.5), std::logic_error);
}

TEST(HistogramPercentile, SingleSampleReportsItsBucketUpperEdgeAtEveryQuantile) {
    histogram h{0.0, 10.0, std::vector<std::size_t>(10, 0)};
    h.record(3.2);  // bin 3, covering (3, 4]
    // Nearest rank maps every quantile of a one-sample histogram to that
    // sample's bucket; the reported value is the bucket's upper edge (an
    // upper bound on the true sample, the conservative side for SLOs).
    EXPECT_DOUBLE_EQ(h.percentile(0.01), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
}

TEST(HistogramPercentile, RecordClampsOutOfRangeSamplesIntoTheEdgeBins) {
    histogram h{0.0, 10.0, std::vector<std::size_t>(10, 0)};
    h.record(-123.0);
    h.record(456.0);
    EXPECT_EQ(h.counts.front(), 1u);
    EXPECT_EQ(h.counts.back(), 1u);
    EXPECT_EQ(h.total(), 2u);
    // A saturated histogram (every further sample beyond hi) pins every
    // upper quantile to the top edge -- it reports "at least hi", never
    // a made-up value past the domain.
    for (int i = 0; i < 100; ++i) h.record(1e9);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
}

TEST(HistogramPercentile, NearestRankWalksTheCumulativeCounts) {
    histogram h{0.0, 4.0, std::vector<std::size_t>(4, 0)};
    for (int i = 0; i < 3; ++i) h.record(1.5);  // bin 1 -> upper edge 2.0
    h.record(2.5);                              // bin 2 -> upper edge 3.0
    // ranks: ceil(q * 4); samples 1..3 live in bin 1, sample 4 in bin 2.
    EXPECT_DOUBLE_EQ(h.percentile(0.25), 2.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.75), 2.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.76), 3.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 3.0);
}

// ---------------------------------------------------------------------------
// Monotone clock shim.
// ---------------------------------------------------------------------------

std::atomic<std::uint64_t> g_fake_ticks{0};
std::uint64_t fake_ticks() { return g_fake_ticks.load(std::memory_order_relaxed); }

TEST(MonotoneClock, DefaultSourceNeverGoesBackwards) {
    const std::uint64_t a = monotone_now_ns();
    const std::uint64_t b = monotone_now_ns();
    EXPECT_LE(a, b);
}

TEST(MonotoneClock, ScopedTickSourceOverridesAndRestores) {
    g_fake_ticks.store(42, std::memory_order_relaxed);
    {
        const scoped_tick_source scoped(&fake_ticks);
        EXPECT_EQ(monotone_now_ns(), 42u);
        g_fake_ticks.store(43, std::memory_order_relaxed);
        EXPECT_EQ(monotone_now_ns(), 43u);
    }
    // Restored to the steady clock: readings advance past any small
    // sentinel immediately.
    EXPECT_NE(monotone_now_ns(), 43u);
}

// ---------------------------------------------------------------------------
// Deterministic ingest-to-applied latency under an injected tick source.
// ---------------------------------------------------------------------------

constexpr double k_bucket_slack = 1.1892071150027210667;  // 2^(1/4), quarter-log2 bins

TEST(IngestLatency, ExactUnderInjectedTickSource) {
    const scoped_tick_source scoped(&fake_ticks);
    g_fake_ticks.store(1'000'000, std::memory_order_relaxed);

    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> dist(0.5, 1.5);
    matrix boot(60, 8);
    for (std::size_t i = 0; i < boot.size(); ++i) boot.data()[i] = dist(rng);

    stream_server server({.threads = 0});
    stream_open_config cfg;
    cfg.kind = stream_kind::tracking;
    cfg.bootstrap_y = boot;
    cfg.max_rank = 4;
    cfg.ingest.capacity = 16;
    cfg.ingest.auto_drain = false;  // accumulate, so WE control the apply time
    const stream_id id = server.open_stream(std::move(cfg));

    EXPECT_EQ(server.ingest_statistics(id).latency_count, 0u);
    EXPECT_EQ(server.ingest_statistics(id).latency_max_ms, 0.0);

    for (std::size_t i = 0; i < 5; ++i) {
        ASSERT_TRUE(server.ingest(id, boot.row(i)).ok());
    }
    // Every bin applies exactly 5 ms after its enqueue staging.
    g_fake_ticks.fetch_add(5'000'000, std::memory_order_relaxed);
    server.flush_stream(id);

    ingest_stats st = server.ingest_statistics(id);
    EXPECT_EQ(st.latency_count, 5u);
    EXPECT_DOUBLE_EQ(st.latency_max_ms, 5.0);  // the max is exact
    // Percentiles are quarter-log2 bucket upper edges: an upper bound on
    // the true value within one bucket width, clamped to the exact max.
    EXPECT_GE(st.latency_p50_ms, 5.0);
    EXPECT_LE(st.latency_p50_ms, 5.0 * k_bucket_slack + 1e-9);
    EXPECT_GE(st.latency_p99_ms, 5.0);
    EXPECT_LE(st.latency_p99_ms, 5.0 * k_bucket_slack + 1e-9);
    EXPECT_LE(st.latency_p50_ms, st.latency_max_ms);
    EXPECT_LE(st.latency_p99_ms, st.latency_max_ms);

    // A straggler: one more bin held for 100 ms dominates max and p99 but
    // leaves the median in the 5 ms bucket.
    ASSERT_TRUE(server.ingest(id, boot.row(5)).ok());
    g_fake_ticks.fetch_add(100'000'000, std::memory_order_relaxed);
    server.flush_stream(id);

    st = server.ingest_statistics(id);
    EXPECT_EQ(st.latency_count, 6u);
    EXPECT_DOUBLE_EQ(st.latency_max_ms, 100.0);
    EXPECT_GE(st.latency_p99_ms, 100.0);
    EXPECT_LE(st.latency_p99_ms, 100.0 * k_bucket_slack + 1e-9);
    EXPECT_GE(st.latency_p50_ms, 5.0);
    EXPECT_LE(st.latency_p50_ms, 5.0 * k_bucket_slack + 1e-9);
    EXPECT_LE(st.latency_p50_ms, st.latency_max_ms);
    EXPECT_LE(st.latency_p99_ms, st.latency_max_ms);
}

// ---------------------------------------------------------------------------
// The no-waiting-in-jobs rule at runtime.
// ---------------------------------------------------------------------------

TEST(ThreadPool, AssertWaitAllowedGatesPoolJobsOnly) {
    // Caller threads are never restricted.
    EXPECT_NO_THROW(thread_pool::assert_wait_allowed());

    // A pool job hits the runtime gate: no pool job ever waits.
    thread_pool pool(2);
    std::promise<bool> job_threw;
    pool.submit([&job_threw] {
        try {
            thread_pool::assert_wait_allowed();
            job_threw.set_value(false);
        } catch (const std::logic_error&) {
            job_threw.set_value(true);
        }
    });
    EXPECT_TRUE(job_threw.get_future().get());
}

}  // namespace
}  // namespace netdiag
