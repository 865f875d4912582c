// The multi-stream serving front-end: single-stream parity with
// standalone detectors for every refit mode and pool size, deterministic
// many-stream stress under a small pool, and snapshot_all -> restore_all
// -> replay exactness.
#include "serve/stream_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/thread_pool.h"
#include "measurement/link_loads.h"
#include "net/migration.h"
#include "subspace/online.h"
#include "topology/builders.h"
#include "topology/routing.h"

namespace netdiag {
namespace {

void expect_same_detection(const detection_result& want, const detection_result& got,
                           const std::string& context) {
    ASSERT_EQ(got.anomalous, want.anomalous) << context;
    ASSERT_EQ(got.spe, want.spe) << context;
    ASSERT_EQ(got.threshold, want.threshold) << context;
}

// Abilene link loads with a diurnal cycle: enough texture for stable PCA
// models at small window sizes. Every test slices bootstraps and stream
// bins out of y_; overlapping slices give each stream a distinct model.
class StreamServerFixture : public ::testing::Test {
protected:
    static constexpr std::size_t k_boot = 60;  // bootstrap rows per stream

    void SetUp() override {
        topo_ = make_abilene();
        routing_ = build_routing(topo_);
        const std::size_t n = routing_.flow_count();
        const std::size_t t_total = 420;

        std::mt19937_64 rng(40417);
        std::normal_distribution<double> gauss(0.0, 1.0);
        matrix x(n, t_total, 0.0);
        for (std::size_t j = 0; j < n; ++j) {
            const double mean = 1e6 * (1.0 + static_cast<double>(j % 13));
            for (std::size_t t = 0; t < t_total; ++t) {
                const double diurnal =
                    1.0 + 0.4 * std::sin(2.0 * 3.14159265 * static_cast<double>(t) / 144.0);
                x(j, t) = std::max(0.0, mean * diurnal + 0.03 * mean * gauss(rng));
            }
        }
        y_ = link_loads_from_flows(routing_.a, x);
    }

    matrix bootstrap_slice(std::size_t first_row) const {
        matrix out(k_boot, y_.cols());
        for (std::size_t r = 0; r < k_boot; ++r) out.set_row(r, y_.row(first_row + r));
        return out;
    }

    streaming_config diagnoser_config(refit_mode mode) const {
        streaming_config cfg;
        cfg.window = k_boot;
        cfg.refit_interval = 9;
        cfg.swap_horizon = 4;
        cfg.mode = mode;
        return cfg;
    }

    stream_open_config open_config(stream_kind kind, std::size_t boot_offset,
                                   refit_mode mode = refit_mode::deferred) const {
        stream_open_config cfg;
        cfg.kind = kind;
        cfg.bootstrap_y = bootstrap_slice(boot_offset);
        if (kind == stream_kind::diagnoser) {
            cfg.a = routing_.a;
            cfg.streaming = diagnoser_config(mode);
        } else {
            cfg.max_rank = kind == stream_kind::tracking ? 8 : 6;
        }
        return cfg;
    }

    // Standalone (no server, no pool) twin of open_config: the parity
    // reference every server stream is compared against bit-for-bit.
    std::unique_ptr<stream_detector> standalone(stream_kind kind, std::size_t boot_offset,
                                                refit_mode mode = refit_mode::deferred) const {
        const matrix boot = bootstrap_slice(boot_offset);
        switch (kind) {
            case stream_kind::diagnoser:
                return std::make_unique<streaming_diagnoser>(boot, routing_.a,
                                                             diagnoser_config(mode));
            case stream_kind::tracking:
                return std::make_unique<tracking_detector>(boot, 8);
            case stream_kind::tracker:
                return std::make_unique<incremental_pca_tracker>(boot, 6);
        }
        return nullptr;
    }

    std::string temp_dir(const char* name) const {
        return (std::filesystem::path(::testing::TempDir()) / name).string();
    }

    topology topo_{"unset"};
    routing_result routing_;
    matrix y_;
};

// ---------------------------------------------------------------------------
// Single-stream parity: the server must be a transparent wrapper.
// ---------------------------------------------------------------------------

TEST_F(StreamServerFixture, DiagnoserParityForEveryRefitModeAndPoolSize) {
    for (const refit_mode mode : {refit_mode::blocking, refit_mode::deferred}) {
        const auto reference = standalone(stream_kind::diagnoser, 0, mode);

        std::vector<detection_result> expected;
        for (std::size_t r = k_boot; r < k_boot + 40; ++r) {
            expected.push_back(reference->push_bin(y_.row(r)));
        }

        for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
            stream_server server({.threads = threads});
            const stream_id id =
                server.open_stream(open_config(stream_kind::diagnoser, 0, mode));
            for (std::size_t r = k_boot; r < k_boot + 40; ++r) {
                const detection_result got = server.push(id, y_.row(r));
                expect_same_detection(expected[r - k_boot], got,
                                      "mode " + std::to_string(static_cast<int>(mode)) +
                                          " threads " + std::to_string(threads) + " bin " +
                                          std::to_string(r));
            }
            EXPECT_EQ(server.stats(id).epoch, reference->model_epoch())
                << "threads " << threads;
            EXPECT_EQ(server.stats(id).alarms, reference->alarm_count())
                << "threads " << threads;
        }
    }
}

TEST_F(StreamServerFixture, TrackingAndTrackerParityAcrossPoolSizes) {
    for (const stream_kind kind : {stream_kind::tracking, stream_kind::tracker}) {
        const auto reference = standalone(kind, 5);
        std::vector<detection_result> expected;
        for (std::size_t r = k_boot + 5; r < k_boot + 45; ++r) {
            expected.push_back(reference->push_bin(y_.row(r)));
        }

        for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
            stream_server server({.threads = threads});
            const stream_id id = server.open_stream(open_config(kind, 5));
            for (std::size_t r = k_boot + 5; r < k_boot + 45; ++r) {
                const detection_result got = server.push(id, y_.row(r));
                expect_same_detection(expected[r - k_boot - 5], got,
                                      "kind " + std::to_string(static_cast<int>(kind)) +
                                          " threads " + std::to_string(threads));
            }
            server.drain_all();
            EXPECT_EQ(server.stats(id).epoch, reference->model_epoch())
                << "threads " << threads;
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic N-stream stress: 32 streams of mixed kinds over a small
// pool, interleaved single pushes / multi-stream bursts / close / open
// driven by a fixed seed, every output compared bit-for-bit against
// standalone shadows.
// ---------------------------------------------------------------------------

TEST_F(StreamServerFixture, ThirtyTwoStreamSeededStressMatchesShadows) {
    constexpr std::size_t k_streams = 32;
    stream_server server({.threads = 2});

    struct shadow {
        stream_id id = 0;
        std::unique_ptr<stream_detector> twin;
        std::size_t cursor = 0;  // next y_ row for this stream
    };
    std::vector<shadow> live;

    std::size_t next_boot = 0;
    const auto spawn = [&](stream_kind kind) {
        const std::size_t boot = next_boot;
        next_boot = (next_boot + 7) % 150;
        shadow s;
        s.id = server.open_stream(open_config(kind, boot));
        s.twin = standalone(kind, boot);
        s.cursor = boot + k_boot;
        live.push_back(std::move(s));
    };

    const stream_kind kinds[] = {stream_kind::diagnoser, stream_kind::tracking,
                                 stream_kind::tracker};
    for (std::size_t s = 0; s < k_streams; ++s) spawn(kinds[s % 3]);

    std::mt19937_64 rng(271828);
    const auto next_row = [&](shadow& s) {
        const std::size_t row = s.cursor;
        s.cursor = row + 1 < y_.rows() ? row + 1 : k_boot;  // wrap, stay in range
        return row;
    };

    for (std::size_t step = 0; step < 400; ++step) {
        const std::uint64_t roll = rng() % 100;
        if (roll < 55 && !live.empty()) {
            // Single push to one stream.
            shadow& s = live[rng() % live.size()];
            const std::size_t row = next_row(s);
            const detection_result got = server.push(s.id, y_.row(row));
            const detection_result want = s.twin->push_bin(y_.row(row));
            expect_same_detection(want, got, "step " + std::to_string(step));
        } else if (roll < 85 && !live.empty()) {
            // Burst across up to 8 streams (repeats allowed), one push each.
            const std::size_t burst = 1 + rng() % std::min<std::size_t>(8, live.size());
            for (std::size_t b = 0; b < burst; ++b) {
                shadow& s = live[rng() % live.size()];
                const std::size_t row = next_row(s);
                const detection_result got = server.push(s.id, y_.row(row));
                const detection_result want = s.twin->push_bin(y_.row(row));
                expect_same_detection(want, got,
                                      "step " + std::to_string(step) + " item " +
                                          std::to_string(b));
            }
        } else if (roll < 92 && live.size() > 4) {
            // Close one stream; the remaining streams must be unperturbed
            // (their shadows keep verifying that on every later push).
            const std::size_t victim = rng() % live.size();
            server.close_stream(live[victim].id);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        } else {
            spawn(kinds[rng() % 3]);
        }
    }

    server.drain_all();
    for (shadow& s : live) {
        s.twin->drain();
        const stream_server::stream_stats st = server.stats(s.id);
        EXPECT_EQ(st.processed, s.twin->processed());
        EXPECT_EQ(st.alarms, s.twin->alarm_count());
        EXPECT_EQ(st.epoch, s.twin->model_epoch());
    }
    EXPECT_EQ(server.stream_count(), live.size());
}

// ---------------------------------------------------------------------------
// Concurrent callers: the documented threading contract is one pusher
// per stream; several pusher threads over disjoint stream sets (plus a
// churn thread opening and closing its own streams) must leave every
// stream's output bit-identical to a standalone run. This is the
// server-side data-race surface the ThreadSanitizer CI job exercises.
// ---------------------------------------------------------------------------

TEST_F(StreamServerFixture, ConcurrentPushersOnDisjointStreamsMatchShadows) {
    constexpr std::size_t k_threads = 4;
    constexpr std::size_t k_per_thread = 2;
    constexpr std::size_t k_bins = 40;
    stream_server server({.threads = 2});

    struct owned_stream {
        stream_id id = 0;
        stream_kind kind = stream_kind::tracker;
        std::size_t boot = 0;
    };
    std::vector<std::vector<owned_stream>> owned(k_threads);
    const stream_kind kinds[] = {stream_kind::diagnoser, stream_kind::tracking,
                                 stream_kind::tracker};
    for (std::size_t t = 0; t < k_threads; ++t) {
        for (std::size_t s = 0; s < k_per_thread; ++s) {
            const std::size_t n = t * k_per_thread + s;
            owned[t].push_back({server.open_stream(open_config(kinds[n % 3], n * 9)),
                                kinds[n % 3], n * 9});
        }
    }

    // Each pusher round-robins its own streams, one push per stream per
    // bin; results are recorded for post-join verification.
    std::vector<std::vector<detection_result>> recorded(k_threads);
    std::vector<std::thread> pushers;
    for (std::size_t t = 0; t < k_threads; ++t) {
        pushers.emplace_back([&, t] {
            for (std::size_t b = 0; b < k_bins; ++b) {
                for (const owned_stream& os : owned[t]) {
                    recorded[t].push_back(server.push(os.id, y_.row(os.boot + k_boot + b)));
                }
            }
        });
    }
    // Churn thread: opens its own short-lived streams, pushes, closes.
    // Must never perturb the pusher threads' streams.
    std::thread churn([&] {
        for (std::size_t round = 0; round < 6; ++round) {
            const stream_id id = server.open_stream(open_config(stream_kind::tracker, 100));
            for (std::size_t b = 0; b < 5; ++b) server.push(id, y_.row(100 + k_boot + b));
            server.close_stream(id);
        }
    });
    for (std::thread& th : pushers) th.join();
    churn.join();
    server.drain_all();

    // Verify per-stream sequences against standalone shadows, in the
    // exact order each pusher recorded them.
    for (std::size_t t = 0; t < k_threads; ++t) {
        std::vector<std::unique_ptr<stream_detector>> twins;
        for (const owned_stream& os : owned[t]) twins.push_back(standalone(os.kind, os.boot));
        std::size_t cursor = 0;
        for (std::size_t b = 0; b < k_bins; ++b) {
            for (std::size_t s = 0; s < owned[t].size(); ++s) {
                const detection_result want =
                    twins[s]->push_bin(y_.row(owned[t][s].boot + k_boot + b));
                expect_same_detection(want, recorded[t][cursor++],
                                      "thread " + std::to_string(t) + " bin " +
                                          std::to_string(b) + " stream " + std::to_string(s));
            }
        }
        for (std::size_t s = 0; s < owned[t].size(); ++s) {
            EXPECT_EQ(server.stats(owned[t][s].id).epoch, twins[s]->model_epoch());
        }
    }
    EXPECT_EQ(server.stream_count(), k_threads * k_per_thread);
}

// ---------------------------------------------------------------------------
// snapshot_all -> restore_all -> replay.
// ---------------------------------------------------------------------------

TEST_F(StreamServerFixture, SnapshotAllRestoreAllReplaysExactlyWithRefitInFlight) {
    const std::string dir = temp_dir("server_snapshot");
    stream_server original({.threads = 2});
    std::vector<stream_id> ids;
    ids.push_back(original.open_stream(open_config(stream_kind::diagnoser, 0)));
    ids.push_back(original.open_stream(open_config(stream_kind::tracking, 20)));
    ids.push_back(original.open_stream(open_config(stream_kind::tracker, 40)));

    // Push until the diagnoser has a refit pending but not yet swapped
    // (trigger at 9, swap at 13): pendingness must survive the round trip.
    std::vector<std::size_t> cursors = {k_boot, k_boot + 20, k_boot + 40};
    for (std::size_t r = 0; r < 11; ++r) {
        for (std::size_t s = 0; s < ids.size(); ++s) {
            original.push(ids[s], y_.row(cursors[s]++));
        }
    }
    {
        const auto& diag =
            dynamic_cast<const streaming_diagnoser&>(original.stream(ids[0]));
        ASSERT_TRUE(diag.refit_pending());
    }

    original.snapshot_all(dir);

    // Restore into a server with a *different* pool size: pool wiring is
    // runtime, not state, and the replay must still be bit-identical.
    stream_server restored({.threads = 1});
    restored.restore_all(dir);
    ASSERT_EQ(restored.stream_count(), 3u);
    ASSERT_EQ(restored.stream_ids(), original.stream_ids());
    for (const stream_id id : ids) {
        EXPECT_EQ(restored.stats(id).processed, original.stats(id).processed);
        EXPECT_EQ(restored.stats(id).epoch, original.stats(id).epoch);
    }

    for (std::size_t r = 0; r < 30; ++r) {
        for (std::size_t s = 0; s < ids.size(); ++s) {
            const std::size_t row = cursors[s]++;
            const detection_result want = original.push(ids[s], y_.row(row));
            const detection_result got = restored.push(ids[s], y_.row(row));
            expect_same_detection(want, got,
                                  "stream " + std::to_string(s) + " replay bin " +
                                      std::to_string(r));
            ASSERT_EQ(restored.stats(ids[s]).epoch, original.stats(ids[s]).epoch)
                << "stream " << s << " bin " << r;
        }
    }
    // The diagnoser's pending refit must have swapped during the replay.
    EXPECT_GE(restored.stats(ids[0]).epoch, 1u);

    // New streams opened after a restore must not collide with restored ids.
    const stream_id fresh = restored.open_stream(open_config(stream_kind::tracker, 80));
    for (const stream_id id : ids) EXPECT_NE(fresh, id);

    std::filesystem::remove_all(dir);
}

TEST_F(StreamServerFixture, RestoreAllRequiresAnEmptyServer) {
    const std::string dir = temp_dir("server_snapshot_nonempty");
    stream_server a({.threads = 0});
    (void)a.open_stream(open_config(stream_kind::tracker, 0));
    a.snapshot_all(dir);

    stream_server b({.threads = 0});
    (void)b.open_stream(open_config(stream_kind::tracker, 10));
    EXPECT_THROW(b.restore_all(dir), std::logic_error);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Lifecycle and error handling.
// ---------------------------------------------------------------------------

TEST_F(StreamServerFixture, UnknownStreamIdThrowsEverywhere) {
    stream_server server({.threads = 0});
    EXPECT_THROW(server.push(42, y_.row(0)), std::invalid_argument);
    EXPECT_THROW(server.close_stream(42), std::invalid_argument);
    EXPECT_THROW(server.stats(42), std::invalid_argument);
    EXPECT_THROW(server.stream(42), std::invalid_argument);
    EXPECT_THROW((void)server.adopt_stream(nullptr), std::invalid_argument);
}

TEST_F(StreamServerFixture, StreamIdsAreNeverReused) {
    stream_server server({.threads = 0});
    const stream_id a = server.open_stream(open_config(stream_kind::tracker, 0));
    server.close_stream(a);
    const stream_id b = server.open_stream(open_config(stream_kind::tracker, 0));
    EXPECT_NE(a, b);
    EXPECT_EQ(server.stream_count(), 1u);
}

// ---------------------------------------------------------------------------
// Stream migration: detach_stream -> restore_stream moves one live
// stream between servers. The bar is the same parity bar the server
// itself is held to -- the migrated stream's output is bit-identical to
// an unmigrated standalone shadow fed the same bins, for every refit
// mode and pool size, including mid-refit and with unapplied residue.
// ---------------------------------------------------------------------------

TEST_F(StreamServerFixture, MigrationParityForEveryRefitModeAndPoolSize) {
    for (const refit_mode mode : {refit_mode::blocking, refit_mode::deferred}) {
        const auto reference = standalone(stream_kind::diagnoser, 0, mode);

        std::vector<detection_result> expected;
        for (std::size_t r = k_boot; r < k_boot + 40; ++r) {
            expected.push_back(reference->push_bin(y_.row(r)));
        }

        for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
            stream_server source({.threads = threads});
            stream_server target({.threads = threads});
            const stream_id id =
                source.open_stream(open_config(stream_kind::diagnoser, 0, mode));

            const std::string context = "mode " + std::to_string(static_cast<int>(mode)) +
                                        " threads " + std::to_string(threads);
            for (std::size_t r = k_boot; r < k_boot + 20; ++r) {
                expect_same_detection(expected[r - k_boot], source.push(id, y_.row(r)),
                                      context + " pre-move bin " + std::to_string(r));
            }

            const stream_id moved = net::migrate_stream(source, id, target);
            EXPECT_THROW(source.push(id, y_.row(k_boot)), std::invalid_argument)
                << context << ": the source must forget a detached stream";

            for (std::size_t r = k_boot + 20; r < k_boot + 40; ++r) {
                expect_same_detection(expected[r - k_boot], target.push(moved, y_.row(r)),
                                      context + " post-move bin " + std::to_string(r));
            }
            target.drain_all();
            EXPECT_EQ(target.stats(moved).epoch, reference->model_epoch()) << context;
            EXPECT_EQ(target.stats(moved).alarms, reference->alarm_count()) << context;
            EXPECT_EQ(target.stats(moved).processed, reference->processed()) << context;
        }
    }
}

TEST_F(StreamServerFixture, MigrationMidRefitKeepsThePendingRefitPending) {
    // 11 pushes with interval 9 / horizon 4: a refit has been triggered
    // (bin 9) but not swapped (bin 13) -- the migration happens with the
    // refit in flight, and pendingness must survive the move.
    const auto reference = standalone(stream_kind::diagnoser, 0);
    stream_server source({.threads = 2});
    stream_server target({.threads = 1});  // pool wiring is runtime, not state
    const stream_id id = source.open_stream(open_config(stream_kind::diagnoser, 0));

    std::size_t cursor = k_boot;
    for (std::size_t r = 0; r < 11; ++r) {
        const std::size_t row = cursor++;
        expect_same_detection(reference->push_bin(y_.row(row)), source.push(id, y_.row(row)),
                              "pre-move bin " + std::to_string(r));
    }
    ASSERT_TRUE(
        dynamic_cast<const streaming_diagnoser&>(source.stream(id)).refit_pending());

    const stream_id moved = net::migrate_stream(source, id, target);
    EXPECT_TRUE(
        dynamic_cast<const streaming_diagnoser&>(target.stream(moved)).refit_pending());

    // The pending refit must swap at the same bin the shadow's does, and
    // everything after stays bit-identical.
    for (std::size_t r = 0; r < 30; ++r) {
        const std::size_t row = cursor++;
        expect_same_detection(reference->push_bin(y_.row(row)),
                              target.push(moved, y_.row(row)),
                              "post-move bin " + std::to_string(r));
        ASSERT_EQ(target.stats(moved).epoch, reference->model_epoch()) << "bin " << r;
    }
    EXPECT_GE(target.stats(moved).epoch, 1u);
}

TEST_F(StreamServerFixture, MigrationCarriesUnappliedInboxResidue) {
    // auto_drain off: ingested bins accumulate as pending residue. The
    // detach must snapshot them WITHOUT applying them, and the restore
    // must re-enqueue them under their original sequence numbers.
    stream_open_config cfg = open_config(stream_kind::tracking, 10);
    cfg.ingest.auto_drain = false;
    stream_server source({.threads = 0});
    stream_server target({.threads = 0});
    const stream_id id = source.open_stream(std::move(cfg));

    constexpr std::size_t k_residue = 7;
    for (std::size_t r = 0; r < k_residue; ++r) {
        ASSERT_TRUE(source.ingest(id, y_.row(k_boot + 10 + r)).ok());
    }
    {
        const ingest_stats before = source.ingest_statistics(id);
        ASSERT_EQ(before.pending, k_residue);
        ASSERT_EQ(before.applied, 0u);
    }

    const stream_id moved = net::migrate_stream(source, id, target);

    // Conservation across the move, residue intact and still unapplied.
    const ingest_stats after = target.ingest_statistics(moved);
    EXPECT_EQ(after.accepted, k_residue);
    EXPECT_EQ(after.applied, 0u);
    EXPECT_EQ(after.dropped, 0u);
    EXPECT_EQ(after.pending, k_residue);
    EXPECT_EQ(after.accepted, after.applied + after.dropped + after.pending);
    EXPECT_EQ(target.stats(moved).processed, 0u);

    // Apply the residue on the target and compare the final record to an
    // unmigrated shadow server fed the same bins: byte-identical.
    target.flush_stream(moved);
    stream_open_config shadow_cfg = open_config(stream_kind::tracking, 10);
    shadow_cfg.ingest.auto_drain = false;
    stream_server shadow({.threads = 0});
    const stream_id shadow_id = shadow.open_stream(std::move(shadow_cfg));
    for (std::size_t r = 0; r < k_residue; ++r) {
        ASSERT_TRUE(shadow.ingest(shadow_id, y_.row(k_boot + 10 + r)).ok());
    }
    shadow.flush_stream(shadow_id);

    std::ostringstream moved_rec(std::ios::binary), shadow_rec(std::ios::binary);
    target.snapshot_stream(moved, moved_rec, ckpt::encoding::interchange);
    shadow.snapshot_stream(shadow_id, shadow_rec, ckpt::encoding::interchange);
    EXPECT_EQ(std::move(moved_rec).str(), std::move(shadow_rec).str());
}

TEST_F(StreamServerFixture, ConcurrentIngestDuringDetachSeesOnlyCleanErrors) {
    // Producers hammering the stream while it is detached must see ok
    // until the quiesce, then stream_closed (mid-close) or unknown_stream
    // (post-removal) -- never an exception, never a silently lost bin:
    // every bin a producer was told was accepted must be accounted for in
    // the migrated record's counters.
    constexpr std::size_t k_producers = 4;
    constexpr std::size_t k_attempts = 400;
    stream_server source({.threads = 2});
    stream_server target({.threads = 0});
    const stream_id id = source.open_stream(open_config(stream_kind::tracking, 0));

    std::atomic<std::uint64_t> accepted_total{0};
    std::atomic<bool> bad_error{false};
    std::vector<std::thread> producers;
    for (std::size_t t = 0; t < k_producers; ++t) {
        producers.emplace_back([&, t] {
            for (std::size_t i = 0; i < k_attempts; ++i) {
                const std::size_t row = k_boot + ((t * 97 + i) % 200);
                const ingest_result r = source.ingest(id, y_.row(row));
                if (r.ok()) {
                    accepted_total.fetch_add(r.accepted, std::memory_order_relaxed);
                } else if (r.error != ingest_error::stream_closed &&
                           r.error != ingest_error::unknown_stream) {
                    bad_error.store(true, std::memory_order_relaxed);
                } else {
                    return;  // the detach hit; stop producing
                }
            }
        });
    }
    // Let the producers land some bins, then detach out from under them.
    while (accepted_total.load(std::memory_order_relaxed) < 32) {
        std::this_thread::yield();
    }
    const std::string record = source.detach_stream(id);
    for (std::thread& t : producers) t.join();
    EXPECT_FALSE(bad_error.load()) << "a producer saw a non-migration error";

    // No silent drops: the record's accepted counter equals exactly the
    // bins producers were told were accepted, and conservation holds on
    // the restored stream before and after applying the residue.
    const stream_id moved = target.restore_stream(record);
    const ingest_stats st = target.ingest_statistics(moved);
    EXPECT_EQ(st.accepted, accepted_total.load());
    EXPECT_EQ(st.accepted, st.applied + st.dropped + st.pending);
    target.flush_stream(moved);
    const ingest_stats drained = target.ingest_statistics(moved);
    EXPECT_EQ(drained.accepted, accepted_total.load());
    EXPECT_EQ(drained.pending, 0u);
    EXPECT_EQ(drained.accepted, drained.applied + drained.dropped);
    EXPECT_EQ(target.stats(moved).processed, drained.applied);
}

TEST_F(StreamServerFixture, AdoptedDetectorServesLikeAnOpenedOne) {
    stream_server server({.threads = 1});
    streaming_config cfg = diagnoser_config(refit_mode::deferred);
    cfg.pool = server.pool();
    const stream_id id = server.adopt_stream(
        std::make_unique<streaming_diagnoser>(bootstrap_slice(0), routing_.a, cfg));

    const auto reference = standalone(stream_kind::diagnoser, 0);
    for (std::size_t r = k_boot; r < k_boot + 25; ++r) {
        expect_same_detection(reference->push_bin(y_.row(r)), server.push(id, y_.row(r)),
                              "bin " + std::to_string(r));
    }
}

}  // namespace
}  // namespace netdiag
