// The pipelined streaming subsystem: stream_detector interface, epoch-
// versioned background model swaps, deterministic-mode bit-identity across
// pool sizes, and checkpoint -> restore -> replay equivalence.
#include "subspace/stream_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/thread_pool.h"
#include "engine/tuning.h"
#include "linalg/ops.h"
#include "measurement/link_loads.h"
#include "measurement/stream_checkpoint.h"
#include "serve/stream_server.h"
#include "subspace/online.h"
#include "topology/builders.h"
#include "topology/routing.h"

namespace netdiag {
namespace {

std::string temp_checkpoint_path(const char* name) {
    return (std::filesystem::path(::testing::TempDir()) / name).string();
}

void expect_same_diagnosis(const diagnosis& a, const diagnosis& b, std::size_t at) {
    ASSERT_EQ(b.anomalous, a.anomalous) << "bin " << at;
    ASSERT_EQ(b.spe, a.spe) << "bin " << at;
    ASSERT_EQ(b.threshold, a.threshold) << "bin " << at;
    ASSERT_EQ(b.flow.has_value(), a.flow.has_value()) << "bin " << at;
    if (a.flow) {
        ASSERT_EQ(*b.flow, *a.flow) << "bin " << at;
    }
    ASSERT_EQ(b.magnitude, a.magnitude) << "bin " << at;
    ASSERT_EQ(b.estimated_bytes, a.estimated_bytes) << "bin " << at;
}

void expect_same_detection(const detection_result& a, const detection_result& b,
                           std::size_t at) {
    ASSERT_EQ(b.anomalous, a.anomalous) << "bin " << at;
    ASSERT_EQ(b.spe, a.spe) << "bin " << at;
    ASSERT_EQ(b.threshold, a.threshold) << "bin " << at;
}

class StreamingFixture : public ::testing::Test {
protected:
    void SetUp() override {
        topo_ = make_abilene();
        routing_ = build_routing(topo_);
        const std::size_t n = routing_.flow_count();

        std::mt19937_64 rng(7031);
        std::normal_distribution<double> gauss(0.0, 1.0);
        const std::size_t t_total = 560;
        matrix x(n, t_total, 0.0);
        for (std::size_t j = 0; j < n; ++j) {
            const double mean = 1e6 * (1.0 + static_cast<double>(j % 11));
            for (std::size_t ti = 0; ti < t_total; ++ti) {
                const double diurnal =
                    1.0 + 0.4 * std::sin(2.0 * 3.14159265 * static_cast<double>(ti) / 144.0);
                x(j, ti) = std::max(0.0, mean * diurnal + 0.03 * mean * gauss(rng));
            }
        }
        const matrix y_full = link_loads_from_flows(routing_.a, x);

        bootstrap_.assign(400, y_full.cols());
        for (std::size_t r = 0; r < 400; ++r) bootstrap_.set_row(r, y_full.row(r));
        stream_.assign(t_total - 400, y_full.cols());
        for (std::size_t r = 400; r < t_total; ++r) stream_.set_row(r - 400, y_full.row(r));
    }

    topology topo_{"unset"};
    routing_result routing_;
    matrix bootstrap_;
    matrix stream_;
};

// ---------------------------------------------------------------------------
// Non-blocking push: the acceptance criterion. A refit the test holds
// captive must not delay the pushes that arrive before its swap boundary
// -- if push waited on the fit, the loop below would deadlock (and time
// out) because the fit is only released after the loop completes. No
// wall-clock assertions, so the test cannot flake on a loaded machine.
// ---------------------------------------------------------------------------

TEST_F(StreamingFixture, DeferredPushesBeforeBoundaryNeverWait) {
    thread_pool pool(1);
    std::atomic<bool> release_fit{false};
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 5;
    cfg.pool = &pool;
    cfg.mode = refit_mode::deferred;
    cfg.swap_horizon = 40;
    cfg.refit_observer = [&release_fit] {
        while (!release_fit.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };

    streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
    for (std::size_t r = 0; r < 5; ++r) diag.push(stream_.row(r));
    ASSERT_TRUE(diag.refit_pending());

    // All of these land before the swap boundary at bin 45: none may wait
    // on the captive fit.
    for (std::size_t r = 5; r < 40; ++r) diag.push(stream_.row(r));
    EXPECT_EQ(diag.model_epoch(), 0u);
    release_fit.store(true);
    diag.drain();
}

// ---------------------------------------------------------------------------
// Deterministic mode: the full output sequence is bit-identical for any
// pool size (including none), for all three stream detectors.
// ---------------------------------------------------------------------------

TEST_F(StreamingFixture, DeferredModeBitIdenticalAcrossThreadCounts) {
    streaming_config base;
    base.window = 400;
    base.refit_interval = 20;
    base.mode = refit_mode::deferred;
    base.swap_horizon = 7;

    streaming_diagnoser reference(bootstrap_, routing_.a, base);  // no pool at all
    std::vector<diagnosis> expected;
    for (std::size_t r = 0; r < 70; ++r) expected.push_back(reference.push(stream_.row(r)));
    EXPECT_EQ(reference.refit_count(), 3u);  // triggers at 20/40/60, swaps at 27/47/67

    for (std::size_t threads : {1u, 2u, 8u}) {
        thread_pool pool(threads);
        streaming_config cfg = base;
        cfg.pool = &pool;
        streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
        for (std::size_t r = 0; r < 70; ++r) {
            const diagnosis d = diag.push(stream_.row(r));
            expect_same_diagnosis(expected[r], d, r);
        }
        EXPECT_EQ(diag.model_epoch(), reference.model_epoch()) << "threads=" << threads;
        EXPECT_EQ(diag.alarm_count(), reference.alarm_count()) << "threads=" << threads;
        diag.drain();
    }
}

TEST_F(StreamingFixture, TrackingDetectorDeferredFoldsBitIdenticalAcrossThreadCounts) {
    tracking_detector reference(bootstrap_, 12);  // fully serial
    std::vector<detection_result> expected;
    for (std::size_t r = 0; r < 60; ++r) expected.push_back(reference.push(stream_.row(r)));

    for (std::size_t threads : {1u, 2u, 8u}) {
        thread_pool pool(threads);
        tracking_detector det(bootstrap_, 12, 0.999, {}, &pool, /*deferred_updates=*/true);
        for (std::size_t r = 0; r < 60; ++r) {
            const detection_result d = det.push(stream_.row(r));
            expect_same_detection(expected[r], d, r);
        }
        det.drain();
        EXPECT_EQ(det.model_epoch(), reference.model_epoch()) << "threads=" << threads;
        EXPECT_EQ(det.threshold(), reference.threshold()) << "threads=" << threads;
    }
}

TEST_F(StreamingFixture, TrackerPooledFoldsBitIdenticalAcrossThreadCounts) {
    // Engage the pooled rank-1 update at unit-test sizes.
    const scoped_tuning guard;
    global_tuning().svd_update_parallel_min_work = 1;
    global_tuning().svd_parallel_min_rows = 8;
    global_tuning().parallel_min_hardware = 1;

    incremental_pca_tracker reference(bootstrap_, 10);
    for (std::size_t r = 0; r < 40; ++r) reference.push(stream_.row(r));

    for (std::size_t threads : {1u, 2u, 8u}) {
        thread_pool pool(threads);
        incremental_pca_tracker tracker(bootstrap_, 10, &pool);
        for (std::size_t r = 0; r < 40; ++r) tracker.push(stream_.row(r));
        ASSERT_EQ(tracker.axes(), reference.axes()) << "threads=" << threads;
        ASSERT_EQ(tracker.axis_variance(), reference.axis_variance()) << "threads=" << threads;
        ASSERT_EQ(tracker.running_mean(), reference.running_mean()) << "threads=" << threads;
    }
}

// ---------------------------------------------------------------------------
// Epochs and the unified interface.
// ---------------------------------------------------------------------------

TEST_F(StreamingFixture, EpochAdvancesOncePerAppliedSwap) {
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 10;
    cfg.mode = refit_mode::deferred;
    cfg.swap_horizon = 3;
    streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
    std::vector<std::uint64_t> epochs;
    for (std::size_t r = 0; r < 30; ++r) {
        diag.push(stream_.row(r));
        epochs.push_back(diag.model_epoch());
    }
    // Triggers at bins 10/20 (processed 10, 20), swaps applied before
    // testing bins 13 and 23.
    EXPECT_EQ(epochs[11], 0u);
    EXPECT_EQ(epochs[13], 1u);
    EXPECT_EQ(epochs[21], 1u);
    EXPECT_EQ(epochs[23], 2u);
}

TEST_F(StreamingFixture, InterfaceCoversAllThreeDetectors) {
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 0;
    std::vector<std::unique_ptr<stream_detector>> detectors;
    detectors.push_back(std::make_unique<streaming_diagnoser>(bootstrap_, routing_.a, cfg));
    detectors.push_back(std::make_unique<tracking_detector>(bootstrap_, 10));
    detectors.push_back(std::make_unique<incremental_pca_tracker>(bootstrap_, 10));

    for (auto& det : detectors) {
        EXPECT_EQ(det->dimension(), bootstrap_.cols());
        for (std::size_t r = 0; r < 10; ++r) det->push_bin(stream_.row(r));
        EXPECT_EQ(det->processed(), 10u);
        EXPECT_LE(det->alarm_count(), det->processed());
        det->drain();
    }
    // The maintenance-only tracker advances its epoch every fold and never
    // alarms.
    EXPECT_EQ(detectors[2]->model_epoch(), 10u);
    EXPECT_EQ(detectors[2]->alarm_count(), 0u);
}

// ---------------------------------------------------------------------------
// Checkpoint -> restore -> replay: the restored stream must reproduce the
// exact remaining detection sequence of the uninterrupted run.
// ---------------------------------------------------------------------------

TEST_F(StreamingFixture, StreamingDiagnoserCheckpointReplaysExactly) {
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 15;
    cfg.mode = refit_mode::deferred;
    cfg.swap_horizon = 5;

    streaming_diagnoser live(bootstrap_, routing_.a, cfg);
    for (std::size_t r = 0; r < 33; ++r) live.push(stream_.row(r));

    const std::string path = temp_checkpoint_path("streaming_diagnoser.ckpt");
    save_stream_detector(live, path);
    const std::string bytes = ckpt::read_file(path);
    ckpt::reader in(bytes);
    streaming_diagnoser restored = streaming_diagnoser::restore(in);

    EXPECT_EQ(restored.processed(), live.processed());
    EXPECT_EQ(restored.model_epoch(), live.model_epoch());
    EXPECT_EQ(restored.refit_count(), live.refit_count());
    for (std::size_t r = 33; r < 80; ++r) {
        const diagnosis a = live.push(stream_.row(r));
        const diagnosis b = restored.push(stream_.row(r));
        expect_same_diagnosis(a, b, r);
        ASSERT_EQ(restored.model_epoch(), live.model_epoch()) << "bin " << r;
    }
    std::remove(path.c_str());
}

TEST_F(StreamingFixture, CheckpointWithRefitInFlightStillReplaysExactly) {
    // Snapshot while a background fit is pending: save() drains it but the
    // deferred swap boundary must survive the round trip.
    thread_pool pool(2);
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 20;
    cfg.pool = &pool;
    cfg.mode = refit_mode::deferred;
    cfg.swap_horizon = 10;

    streaming_diagnoser live(bootstrap_, routing_.a, cfg);
    for (std::size_t r = 0; r < 22; ++r) live.push(stream_.row(r));  // trigger at 20, swap at 30

    const std::string path = temp_checkpoint_path("streaming_pending.ckpt");
    save_stream_detector(live, path);
    ASSERT_TRUE(live.refit_pending());

    // Restore with no pool: pendingness and the swap bin are state, not
    // wiring, so the replay still swaps at bin 30.
    std::unique_ptr<stream_detector> restored = load_stream_detector(path);
    EXPECT_EQ(restored->model_epoch(), live.model_epoch());
    for (std::size_t r = 22; r < 60; ++r) {
        const diagnosis a = live.push(stream_.row(r));
        const detection_result b = restored->push_bin(stream_.row(r));
        ASSERT_EQ(b.anomalous, a.anomalous) << "bin " << r;
        ASSERT_EQ(b.spe, a.spe) << "bin " << r;
        ASSERT_EQ(b.threshold, a.threshold) << "bin " << r;
        ASSERT_EQ(restored->model_epoch(), live.model_epoch()) << "bin " << r;
    }
    EXPECT_GE(restored->model_epoch(), 1u);
    std::remove(path.c_str());
}

TEST_F(StreamingFixture, TrackingDetectorCheckpointReplaysExactly) {
    tracking_detector live(bootstrap_, 12);
    for (std::size_t r = 0; r < 25; ++r) live.push(stream_.row(r));

    const std::string path = temp_checkpoint_path("tracking_detector.ckpt");
    save_stream_detector(live, path);
    std::unique_ptr<stream_detector> restored = load_stream_detector(path);

    EXPECT_EQ(restored->processed(), live.processed());
    EXPECT_EQ(restored->model_epoch(), live.model_epoch());
    for (std::size_t r = 25; r < 70; ++r) {
        const detection_result a = live.push(stream_.row(r));
        const detection_result b = restored->push_bin(stream_.row(r));
        expect_same_detection(a, b, r);
    }
    std::remove(path.c_str());
}

TEST_F(StreamingFixture, TrackerCheckpointReplaysExactly) {
    incremental_pca_tracker live(bootstrap_, 8);
    for (std::size_t r = 0; r < 20; ++r) live.push(stream_.row(r));

    const std::string path = temp_checkpoint_path("tracker.ckpt");
    save_stream_detector(live, path);
    const std::string bytes = ckpt::read_file(path);
    ckpt::reader in(bytes);
    incremental_pca_tracker restored = incremental_pca_tracker::restore(in);

    ASSERT_EQ(restored.axes(), live.axes());
    for (std::size_t r = 20; r < 50; ++r) {
        live.push(stream_.row(r));
        restored.push(stream_.row(r));
    }
    ASSERT_EQ(restored.axes(), live.axes());
    ASSERT_EQ(restored.axis_variance(), live.axis_variance());
    ASSERT_EQ(restored.running_mean(), live.running_mean());
    ASSERT_EQ(restored.sample_count(), live.sample_count());
    std::remove(path.c_str());
}

TEST_F(StreamingFixture, RestoreRejectsRefitModeTwo) {
    // The record's refit-mode field admits only 0 (blocking) and 1
    // (deferred). A 2 -- the retired timing-dependent swap mode -- must
    // fail restore with the typed error, never build a diagnoser whose
    // mode has no swap branch.
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 15;
    cfg.mode = refit_mode::deferred;
    streaming_diagnoser live(bootstrap_, routing_.a, cfg);
    ckpt::writer saved;
    live.save(saved);
    const std::string good = saved.release();

    // Locate the field by writing the record's prefix with the same
    // codec: header, window, refit interval, confidence, k-sigma, min
    // normal axes, and the (absent) fixed-rank flag.
    ckpt::writer prefix;
    ckpt::write_header(prefix, "streaming_diagnoser");
    ckpt::write_u64(prefix, cfg.window);
    ckpt::write_u64(prefix, cfg.refit_interval);
    ckpt::write_f64(prefix, cfg.confidence);
    ckpt::write_f64(prefix, cfg.separation.k_sigma);
    ckpt::write_u64(prefix, cfg.separation.min_normal_axes);
    ckpt::write_flag(prefix, false);
    const std::size_t mode_at = prefix.bytes().size();
    ckpt::writer deferred_field;
    ckpt::write_u64(deferred_field, static_cast<std::uint64_t>(refit_mode::deferred));
    ASSERT_EQ(good.substr(mode_at, deferred_field.bytes().size()), deferred_field.bytes())
        << "refit-mode field not where the format says it is";

    ckpt::writer two_field;
    ckpt::write_u64(two_field, 2);
    std::string patched = good;
    patched.replace(mode_at, two_field.bytes().size(), two_field.bytes());

    {
        ckpt::reader in(good);
        EXPECT_NO_THROW((void)streaming_diagnoser::restore(in));
    }
    ckpt::reader in(patched);
    try {
        (void)streaming_diagnoser::restore(in);
        FAIL() << "refit mode 2 restored";
    } catch (const ckpt::format_error& e) {
        EXPECT_NE(std::string(e.what()).find("malformed refit mode"), std::string::npos)
            << e.what();
    }
}

TEST_F(StreamingFixture, CheckpointRejectsGarbage) {
    const std::string path = temp_checkpoint_path("garbage.ckpt");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a checkpoint";
    }
    EXPECT_THROW(load_stream_detector(path), std::runtime_error);
    EXPECT_THROW(load_stream_detector(path + ".missing"), std::runtime_error);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Refit triggers during a pending refit: the freshest window snapshot is
// queued (never dropped), and the queued fit launches at the swap.
// ---------------------------------------------------------------------------

TEST_F(StreamingFixture, SecondBurstDuringSlowRefitStillProducesASwap) {
    // The refit interval (5) is far shorter than the swap horizon (20), so
    // triggers at bins 10/15/20 all land while the bin-5 refit is pending.
    // The first fit is held captive to model a slow refit; the queued
    // snapshot must still produce a second model swap after it is applied.
    thread_pool pool(2);
    std::atomic<int> fits_started{0};
    std::atomic<bool> release_first_fit{false};
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 5;
    cfg.swap_horizon = 20;
    cfg.pool = &pool;
    cfg.mode = refit_mode::deferred;
    cfg.refit_observer = [&fits_started, &release_first_fit] {
        if (fits_started.fetch_add(1) == 0) {
            while (!release_first_fit.load()) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        }
    };

    streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
    for (std::size_t r = 0; r < 20; ++r) diag.push(stream_.row(r));
    // Trigger at bin 5 is computing; triggers at 10/15/20 queued (freshest
    // wins, so exactly one snapshot is held).
    ASSERT_TRUE(diag.refit_pending());
    EXPECT_TRUE(diag.refit_queued());
    EXPECT_EQ(diag.model_epoch(), 0u);

    release_first_fit.store(true);
    diag.drain();

    // Swap 1 applies at bin 25 (5 + horizon) and immediately launches the
    // queued fit, which swaps 20 bins later at bin 45.
    for (std::size_t r = 20; r < 25; ++r) diag.push(stream_.row(r));
    EXPECT_EQ(diag.model_epoch(), 0u);
    diag.push(stream_.row(25));
    EXPECT_EQ(diag.model_epoch(), 1u);
    EXPECT_FALSE(diag.refit_queued()) << "queued snapshot should have launched at the swap";
    ASSERT_TRUE(diag.refit_pending());

    for (std::size_t r = 26; r <= 45; ++r) diag.push(stream_.row(r));
    EXPECT_EQ(diag.model_epoch(), 2u);
    EXPECT_EQ(diag.refit_count(), 2u);
    EXPECT_GE(fits_started.load(), 2);
    diag.drain();
}

TEST_F(StreamingFixture, QueuedRefitCascadeIsBitIdenticalAcrossPoolSizes) {
    // Same geometry (interval < horizon, so every cycle queues a refit)
    // without captive fits: the cascade of queued launches is part of the
    // deterministic-replay contract, for any pool size including none.
    streaming_config base;
    base.window = 400;
    base.refit_interval = 5;
    base.swap_horizon = 20;
    base.mode = refit_mode::deferred;

    streaming_diagnoser reference(bootstrap_, routing_.a, base);
    std::vector<diagnosis> expected;
    std::vector<std::uint64_t> expected_epochs;
    for (std::size_t r = 0; r < 80; ++r) {
        expected.push_back(reference.push(stream_.row(r)));
        expected_epochs.push_back(reference.model_epoch());
    }
    // Launches at 5 (swap 25), queued->45, queued->65: three applied swaps.
    EXPECT_EQ(reference.refit_count(), 3u);

    for (std::size_t threads : {1u, 2u, 8u}) {
        thread_pool pool(threads);
        streaming_config cfg = base;
        cfg.pool = &pool;
        streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
        for (std::size_t r = 0; r < 80; ++r) {
            const diagnosis d = diag.push(stream_.row(r));
            expect_same_diagnosis(expected[r], d, r);
            ASSERT_EQ(diag.model_epoch(), expected_epochs[r]) << "threads=" << threads
                                                              << " bin " << r;
        }
        diag.drain();
    }
}

TEST_F(StreamingFixture, QueuedRefitSurvivesCheckpointRoundTrip) {
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 5;
    cfg.swap_horizon = 20;
    cfg.mode = refit_mode::deferred;

    streaming_diagnoser live(bootstrap_, routing_.a, cfg);
    for (std::size_t r = 0; r < 12; ++r) live.push(stream_.row(r));
    ASSERT_TRUE(live.refit_pending());
    ASSERT_TRUE(live.refit_queued());

    const std::string path = temp_checkpoint_path("queued_refit.ckpt");
    save_stream_detector(live, path);
    const std::string bytes = ckpt::read_file(path);
    ckpt::reader in(bytes);
    streaming_diagnoser restored = streaming_diagnoser::restore(in);
    EXPECT_TRUE(restored.refit_queued());

    for (std::size_t r = 12; r < 70; ++r) {
        const diagnosis a = live.push(stream_.row(r));
        const diagnosis b = restored.push(stream_.row(r));
        expect_same_diagnosis(a, b, r);
        ASSERT_EQ(restored.model_epoch(), live.model_epoch()) << "bin " << r;
    }
    EXPECT_GE(restored.refit_count(), 2u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Legacy blocking mode still behaves exactly as before.
// ---------------------------------------------------------------------------

TEST_F(StreamingFixture, BlockingModeSwapsAtTheTriggerBin) {
    streaming_config cfg;
    cfg.window = 400;
    cfg.refit_interval = 10;
    streaming_diagnoser diag(bootstrap_, routing_.a, cfg);
    for (std::size_t r = 0; r < 10; ++r) diag.push(stream_.row(r));
    EXPECT_EQ(diag.refit_count(), 1u);
    EXPECT_EQ(diag.model_epoch(), 1u);
    EXPECT_FALSE(diag.refit_pending());
}

// ---------------------------------------------------------------------------
// Golden fixtures: committed checkpoints (written on a little-endian
// x86-64 host) that must load, re-save byte-identically and replay a
// fixed portable bin sequence to a committed after-state. The encoding is
// little-endian by definition, so this holds on a host of either byte
// order. Records the reader no longer accepts fail with errors that say
// why.
// ---------------------------------------------------------------------------

// Fully portable deterministic measurements: raw mt19937_64 output (a
// specified PRNG) mapped to doubles with exact IEEE arithmetic only -- no
// std::*_distribution, whose output is implementation-defined.
matrix golden_measurements(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    matrix y(rows, cols, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            const double u =
                static_cast<double>(rng() >> 11) * 0x1.0p-53;  // exact, in [0, 1)
            y(r, c) = 1e6 * static_cast<double>(1 + c % 5) * (0.5 + u);
        }
    }
    return y;
}

std::string golden_fixture_path(const char* name) {
    return std::string(NETDIAG_TEST_DATA_DIR) + "/" + name;
}

std::string saved_bytes(stream_detector& det) {
    ckpt::writer out;
    det.save(out);
    return out.release();
}

// Little-endian 8-byte word, as the codec lays out every integer.
std::string le64(std::uint64_t v) {
    std::string b(8, '\0');
    for (std::size_t i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
    return b;
}

// Expects load_stream_detector to reject `bytes` with a format_error
// whose message contains `needle`.
void expect_load_rejected(const std::string& bytes, const char* needle, const char* what) {
    ckpt::reader in(bytes);
    try {
        (void)load_stream_detector(in);
        ADD_FAILURE() << what << " was accepted";
    } catch (const ckpt::format_error& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << what << ": got \"" << e.what() << "\"";
    }
}

constexpr std::size_t k_golden_dim = 6;
constexpr std::size_t k_golden_boot_rows = 10;
constexpr std::size_t k_golden_rank = 3;
constexpr std::size_t k_golden_prefix_bins = 8;   // folded into the fixture
constexpr std::size_t k_golden_replay_bins = 16;  // replayed by the test

TEST(GoldenCheckpoint, ReplaysBitExactlyOrRejectsForeignEndianness) {
    const std::string fixture =
        golden_fixture_path("golden_tracking_detector_interchange.ckpt");
    const std::string after = golden_fixture_path("golden_tracking_detector_after.ckpt");
    const matrix bins =
        golden_measurements(k_golden_prefix_bins + k_golden_replay_bins, k_golden_dim, 99);

    if (std::getenv("NETDIAG_REGEN_GOLDEN") != nullptr) {
        tracking_detector det(golden_measurements(k_golden_boot_rows, k_golden_dim, 1234),
                              k_golden_rank);
        for (std::size_t r = 0; r < k_golden_prefix_bins; ++r) det.push(bins.row(r));
        save_stream_detector(det, fixture);
        for (std::size_t r = k_golden_prefix_bins; r < bins.rows(); ++r) det.push(bins.row(r));
        save_stream_detector(det, after);
        GTEST_SKIP() << "regenerated golden fixtures in " << NETDIAG_TEST_DATA_DIR;
    }

    // The fixture loads, re-saves to the same bytes, and replays the
    // exact detection sequence. (Bit-exactness across builds assumes
    // IEEE doubles without FMA contraction in the fold path; the build
    // pins -ffp-contract=off.)
    const std::string fixture_bytes = ckpt::read_file(fixture);
    std::unique_ptr<stream_detector> restored = load_stream_detector(fixture);
    ASSERT_EQ(restored->dimension(), k_golden_dim);
    ASSERT_EQ(restored->processed(), k_golden_prefix_bins);
    EXPECT_EQ(saved_bytes(*restored), fixture_bytes)
        << "re-saving the loaded tracking fixture changed its bytes";
    for (std::size_t r = k_golden_prefix_bins; r < bins.rows(); ++r) {
        restored->push_bin(bins.row(r));
    }
    EXPECT_EQ(saved_bytes(*restored), ckpt::read_file(after))
        << "replaying the golden checkpoint no longer reproduces the committed state; "
           "if the format or the fold arithmetic changed intentionally, regenerate with "
           "NETDIAG_REGEN_GOLDEN=1";

    // The same record from a writer that laid its words out in the other
    // byte order: the magic word arrives reversed and the record is
    // rejected at that first word, never replayed as garbage.
    std::string swapped = fixture_bytes;
    std::reverse(swapped.begin(), swapped.begin() + 8);
    expect_load_rejected(swapped, "endianness", "byte-swapped interchange record");
}

TEST(GoldenCheckpoint, ByteSwappedMagicIsRejectedWithAnEndiannessError) {
    // A version-2 record in the retired host-endian native encoding
    // ("NDSDCK1" magic, untagged words), as written by a little-endian
    // and by a big-endian host. Both fail at the magic word.
    constexpr std::uint64_t k_native_magic = 0x314b434453444eull;
    const std::string tag = "tracking_detector";
    const std::string le_record = le64(k_native_magic) + le64(2) + le64(tag.size()) + tag;
    std::string be_record = le_record;
    for (std::size_t word = 0; word < 24; word += 8) {
        std::reverse(be_record.begin() + static_cast<std::ptrdiff_t>(word),
                     be_record.begin() + static_cast<std::ptrdiff_t>(word + 8));
    }
    expect_load_rejected(le_record, "native encoding", "little-endian native record");
    expect_load_rejected(be_record, "endianness", "big-endian native record");
}

// ---------------------------------------------------------------------------
// Fixtures for the records a migration actually moves: a
// streaming_diagnoser with a pending refit AND a filled queued-refit
// slot, and a stream_server container holding unapplied inbox residue.
// ---------------------------------------------------------------------------

// 6 links x 9 OD flows; every flow crosses two links, so every column of
// the routing matrix is distinct and nonzero.
matrix golden_routing() {
    matrix a(k_golden_dim, 9, 0.0);
    for (std::size_t f = 0; f < a.cols(); ++f) {
        a(f % k_golden_dim, f) = 1.0;
        a((f + 1 + f / k_golden_dim) % k_golden_dim, f) = 1.0;
    }
    return a;
}

streaming_config golden_streaming_config() {
    streaming_config cfg;
    cfg.window = 24;
    cfg.refit_interval = 5;
    cfg.swap_horizon = 20;
    cfg.mode = refit_mode::deferred;
    cfg.separation.fixed_rank = 2;
    return cfg;
}

constexpr std::size_t k_golden_diag_prefix_bins = 12;  // trigger at 5 pending, 10 queued
constexpr std::size_t k_golden_diag_replay_bins = 40;

TEST(GoldenCheckpoint, DiagnoserWithQueuedRefitReplaysAndResavesByteIdentically) {
    const std::string fixture =
        golden_fixture_path("golden_streaming_diagnoser_interchange.ckpt");
    const std::string after = golden_fixture_path("golden_streaming_diagnoser_after.ckpt");
    const matrix bins = golden_measurements(
        k_golden_diag_prefix_bins + k_golden_diag_replay_bins, k_golden_dim, 77);

    if (std::getenv("NETDIAG_REGEN_GOLDEN") != nullptr) {
        streaming_diagnoser det(golden_measurements(k_golden_boot_rows, k_golden_dim, 4321),
                                golden_routing(), golden_streaming_config());
        for (std::size_t r = 0; r < k_golden_diag_prefix_bins; ++r) det.push(bins.row(r));
        ASSERT_TRUE(det.refit_pending());
        ASSERT_TRUE(det.refit_queued());
        save_stream_detector(det, fixture);
        for (std::size_t r = k_golden_diag_prefix_bins; r < bins.rows(); ++r) {
            det.push(bins.row(r));
        }
        save_stream_detector(det, after);
        GTEST_SKIP() << "regenerated diagnoser fixtures in " << NETDIAG_TEST_DATA_DIR;
    }

    const std::string fixture_bytes = ckpt::read_file(fixture);
    ckpt::reader in(fixture_bytes);
    streaming_diagnoser restored = streaming_diagnoser::restore(in);
    ASSERT_EQ(restored.processed(), k_golden_diag_prefix_bins);
    EXPECT_TRUE(restored.refit_pending());
    EXPECT_TRUE(restored.refit_queued());
    EXPECT_EQ(saved_bytes(restored), fixture_bytes)
        << "re-saving the loaded diagnoser fixture changed its bytes";

    for (std::size_t r = k_golden_diag_prefix_bins; r < bins.rows(); ++r) {
        restored.push(bins.row(r));
    }
    EXPECT_GE(restored.refit_count(), 2u);
    EXPECT_EQ(saved_bytes(restored), ckpt::read_file(after))
        << "replaying the diagnoser fixture no longer reproduces the committed state; "
           "regenerate with NETDIAG_REGEN_GOLDEN=1 only after an intentional change";
}

constexpr std::size_t k_golden_server_applied_bins = 6;
constexpr std::size_t k_golden_server_residue_bins = 3;
constexpr std::size_t k_golden_server_replay_bins = 10;

// Goes through the std::ostream / std::istream overloads of
// snapshot_stream / restore_stream on purpose: stream-based callers
// still use them.
TEST(GoldenCheckpoint, ServerStreamWithInboxResidueReplaysAndResavesByteIdentically) {
    const std::string fixture = golden_fixture_path("golden_server_stream_interchange.ckpt");
    const std::string after = golden_fixture_path("golden_server_stream_after.ckpt");
    const std::size_t prefix = k_golden_server_applied_bins + k_golden_server_residue_bins;
    const matrix bins =
        golden_measurements(prefix + k_golden_server_replay_bins, k_golden_dim, 55);

    const auto snapshot = [](stream_server& server, stream_id id) {
        std::ostringstream out(std::ios::binary);
        server.snapshot_stream(id, out, ckpt::encoding::interchange);
        return std::move(out).str();
    };
    const auto replay = [&](stream_server& server, stream_id id) {
        server.flush_stream(id);  // the residue applies first
        for (std::size_t r = prefix; r < bins.rows(); ++r) {
            ASSERT_TRUE(server.ingest(id, bins.row(r)).ok());
            server.flush_stream(id);
        }
    };

    if (std::getenv("NETDIAG_REGEN_GOLDEN") != nullptr) {
        stream_server server({.threads = 0});
        stream_open_config cfg;
        cfg.kind = stream_kind::tracking;
        cfg.bootstrap_y = golden_measurements(k_golden_boot_rows, k_golden_dim, 1234);
        cfg.max_rank = k_golden_rank;
        cfg.ingest.capacity = 8;
        cfg.ingest.auto_drain = false;
        const stream_id id = server.open_stream(std::move(cfg));
        for (std::size_t r = 0; r < prefix; ++r) {
            ASSERT_TRUE(server.ingest(id, bins.row(r)).ok());
            if (r + 1 == k_golden_server_applied_bins) server.flush_stream(id);
        }
        ASSERT_EQ(server.ingest_statistics(id).pending, k_golden_server_residue_bins);
        ckpt::write_file(fixture, snapshot(server, id));
        replay(server, id);
        ckpt::write_file(after, snapshot(server, id));
        GTEST_SKIP() << "regenerated server_stream fixtures in " << NETDIAG_TEST_DATA_DIR;
    }

    const std::string fixture_bytes = ckpt::read_file(fixture);
    stream_server server({.threads = 0});
    const stream_id id = [&] {
        std::istringstream in(fixture_bytes, std::ios::binary);
        return server.restore_stream(in);
    }();
    const ingest_stats st = server.ingest_statistics(id);
    EXPECT_EQ(st.applied, k_golden_server_applied_bins);
    EXPECT_EQ(st.pending, k_golden_server_residue_bins);
    EXPECT_EQ(snapshot(server, id), fixture_bytes)
        << "re-saving the loaded server_stream fixture changed its bytes";

    replay(server, id);
    EXPECT_EQ(server.ingest_statistics(id).applied, bins.rows());
    EXPECT_EQ(snapshot(server, id), ckpt::read_file(after))
        << "replaying the server_stream fixture no longer reproduces the committed state; "
           "regenerate with NETDIAG_REGEN_GOLDEN=1 only after an intentional change";
}

// ---------------------------------------------------------------------------
// Hostile headers: sizes are validated against the bytes actually left
// BEFORE any allocation (the 2^60-bin regression).
// ---------------------------------------------------------------------------

TEST(StreamCheckpoint, HeaderSizeLiesFailBeforeAllocation) {
    const auto expect_throws_with = [](const std::string& bytes, const char* needle,
                                       const char* what, auto read) {
        ckpt::reader in(bytes);
        try {
            (void)read(in);
            FAIL() << what << ": a lying header was accepted";
        } catch (const ckpt::format_error& e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << what << ": got \"" << e.what() << "\"";
        }
    };
    const auto read_vec = [](ckpt::reader& in) { return ckpt::read_vec(in); };
    const auto read_matrix = [](ckpt::reader& in) { return ckpt::read_matrix(in); };

    // A header claiming 2^60 bins trips the absolute cap -- no allocation
    // is ever attempted.
    expect_throws_with(std::string("V") + le64(1ull << 60), "too large",
                       "2^60-element vector", read_vec);

    // A claim UNDER the cap but over the bytes actually present trips the
    // remaining-input validation.
    expect_throws_with(std::string("V") + le64(1u << 20) + std::string(64, '\0'),
                       "exceeds remaining input", "over-length vector", read_vec);

    // Matrices: absolute cap and remaining-input check both hold.
    expect_throws_with(std::string("M") + le64(1ull << 60) + le64(4), "too large",
                       "2^60-row matrix", read_matrix);
    expect_throws_with(std::string("M") + le64(1000) + le64(1000) + std::string(128, '\0'),
                       "exceeds remaining input", "over-length matrix", read_matrix);

    // Strings too: a length lie inside a record (e.g. a type tag) fails
    // the same way through the header reader.
    ckpt::writer rec;
    ckpt::write_header(rec, "tracking_detector");
    std::string bytes = rec.release();
    // Header layout: 8-byte magic, 'U' + 8-byte version, then the type
    // tag's 'S' token at 17 with its length field at 18. Lie in the
    // length without adding bytes.
    constexpr std::size_t len_pos = 8 + 1 + 8 + 1;
    ASSERT_EQ(bytes.at(len_pos - 1), 'S');
    bytes.replace(len_pos, 8, le64(1u << 19));
    expect_throws_with(bytes, "exceeds remaining input", "string length lie",
                       [](ckpt::reader& in) { return ckpt::read_header(in); });
}

}  // namespace
}  // namespace netdiag
