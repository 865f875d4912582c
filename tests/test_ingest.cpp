// The multi-pusher ingest edge: the engine mpsc_inbox primitive, the
// stream_server ingest()/ingest_batch() API, backpressure policies,
// close/flush semantics, the N-producer parity stress (per-stream output
// bit-identical to a standalone single-pusher detector replayed in inbox
// sequence order, for every refit mode and pool size), and the format-v3
// checkpoint round trip with non-empty inbox residue. This binary runs
// under the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/mpsc_inbox.h"
#include "measurement/link_loads.h"
#include "measurement/stream_checkpoint.h"
#include "net/frontend.h"
#include "net/protocol.h"
#include "serve/stream_server.h"
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

// ---------------------------------------------------------------------------
// mpsc_inbox primitive.
// ---------------------------------------------------------------------------

TEST(MpscInbox, AssignsMonotoneSequencesAndPopsInOrder) {
    mpsc_inbox<int> inbox(4, inbox_policy::reject);
    EXPECT_EQ(inbox.capacity(), 4u);
    for (int i = 0; i < 4; ++i) {
        const auto r = inbox.push(100 + i);
        ASSERT_EQ(r.status, inbox_push_status::accepted);
        EXPECT_EQ(r.sequence, static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(inbox.push(999).status, inbox_push_status::full);

    // Wraparound: many push/pop cycles beyond the ring size keep the
    // sequence monotone and the order FIFO.
    int value = 0;
    std::uint64_t seq = 0;
    std::uint64_t expect_seq = 0;
    for (int cycle = 0; cycle < 3; ++cycle) {
        while (inbox.try_pop(value, seq)) {
            EXPECT_EQ(seq, expect_seq);
            EXPECT_EQ(value, static_cast<int>(100 + expect_seq));
            ++expect_seq;
        }
        for (int i = 0; i < 4; ++i) {
            const auto r = inbox.push(static_cast<int>(100 + inbox.next_sequence()));
            ASSERT_EQ(r.status, inbox_push_status::accepted);
        }
    }
    EXPECT_TRUE(inbox.try_pop(value, seq));
    EXPECT_EQ(seq, expect_seq);
}

TEST(MpscInbox, RejectsZeroAndOversizedCapacities) {
    EXPECT_THROW(mpsc_inbox<int>(0), std::invalid_argument);
    // A corrupted capacity (e.g. from a damaged checkpoint) must fail
    // loudly, not hang the power-of-two rounding or attempt a giant
    // allocation.
    EXPECT_THROW(mpsc_inbox<int>(std::numeric_limits<std::size_t>::max()),
                 std::invalid_argument);
    EXPECT_THROW(mpsc_inbox<int>(mpsc_inbox<int>::k_max_capacity + 1),
                 std::invalid_argument);
}

TEST(MpscInbox, PushNIsAllOrNothingWithConsecutiveSequences) {
    mpsc_inbox<int> inbox(8, inbox_policy::reject);
    std::vector<int> a = {1, 2, 3};
    const auto ra = inbox.push_n(std::span<int>(a));
    ASSERT_EQ(ra.status, inbox_push_status::accepted);
    EXPECT_EQ(ra.sequence, 0u);

    std::vector<int> big(7, 9);  // 3 pending + 7 > 8: must not partially enqueue
    const auto rb = inbox.push_n(std::span<int>(big));
    EXPECT_EQ(rb.status, inbox_push_status::full);
    EXPECT_EQ(inbox.approx_size(), 3u);
    EXPECT_EQ(inbox.next_sequence(), 3u);

    EXPECT_THROW(
        {
            std::vector<int> too_big(9, 0);
            (void)inbox.push_n(std::span<int>(too_big));
        },
        std::invalid_argument);
}

TEST(MpscInbox, DropOldestEvictsExactlyTheOldest) {
    mpsc_inbox<int> inbox(4, inbox_policy::drop_oldest);
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(inbox.push(i).status, inbox_push_status::accepted);
    }
    const auto r = inbox.push(4);
    ASSERT_EQ(r.status, inbox_push_status::accepted);
    EXPECT_EQ(r.sequence, 4u);
    EXPECT_EQ(r.dropped, 1u);

    int value = 0;
    std::uint64_t seq = 0;
    std::vector<int> drained;
    while (inbox.try_pop(value, seq)) drained.push_back(value);
    EXPECT_EQ(drained, (std::vector<int>{1, 2, 3, 4}));
}

TEST(MpscInbox, CloseWakesBlockedProducers) {
    mpsc_inbox<int> inbox(2, inbox_policy::block);
    ASSERT_EQ(inbox.push(0).status, inbox_push_status::accepted);
    ASSERT_EQ(inbox.push(1).status, inbox_push_status::accepted);
    std::atomic<int> status{-1};
    std::thread producer([&] {
        const auto r = inbox.push(2);  // blocks: ring is full
        status.store(static_cast<int>(r.status), std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(status.load(std::memory_order_acquire), -1) << "producer should be blocked";
    inbox.close();
    producer.join();
    EXPECT_EQ(status.load(), static_cast<int>(inbox_push_status::closed));
    EXPECT_EQ(inbox.push(3).status, inbox_push_status::closed);
    // Pending items survive a close.
    int value = 0;
    std::uint64_t seq = 0;
    EXPECT_TRUE(inbox.try_pop(value, seq));
    EXPECT_EQ(value, 0);
}

TEST(MpscInbox, ConcurrentProducersDeliverEveryItemExactlyOnceInSequenceOrder) {
    constexpr std::size_t k_producers = 4;
    constexpr std::size_t k_per_producer = 400;
    constexpr std::size_t k_total = k_producers * k_per_producer;
    mpsc_inbox<std::uint64_t> inbox(64, inbox_policy::block);

    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < k_producers; ++p) {
        producers.emplace_back([&, p] {
            for (std::size_t i = 0; i < k_per_producer; ++i) {
                const auto r = inbox.push(p * k_per_producer + i);
                ASSERT_EQ(r.status, inbox_push_status::accepted);
            }
        });
    }

    std::vector<std::uint64_t> values;
    std::uint64_t last_seq = 0;
    bool first = true;
    std::uint64_t value = 0;
    std::uint64_t seq = 0;
    while (values.size() < k_total) {
        if (!inbox.try_pop(value, seq)) {
            std::this_thread::yield();
            continue;
        }
        if (!first) {
            EXPECT_EQ(seq, last_seq + 1) << "sequence gap at pop " << values.size();
        }
        first = false;
        last_seq = seq;
        values.push_back(value);
    }
    for (std::thread& t : producers) t.join();

    // Every item exactly once; per-producer order preserved (a producer's
    // items are FIFO even though producers interleave arbitrarily).
    std::vector<std::uint64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < k_total; ++i) ASSERT_EQ(sorted[i], i);
    std::vector<std::uint64_t> next_of(k_producers, 0);
    for (const std::uint64_t v : values) {
        const std::size_t p = v / k_per_producer;
        EXPECT_EQ(v % k_per_producer, next_of[p]) << "producer " << p << " order violated";
        ++next_of[p];
    }
}

// ---------------------------------------------------------------------------
// Server ingest fixture: Abilene link loads with a diurnal cycle, same
// texture as the stream_server tests.
// ---------------------------------------------------------------------------

class IngestFixture : public ::testing::Test {
protected:
    static constexpr std::size_t k_boot = 60;  // bootstrap rows per stream

    void SetUp() override {
        topo_ = make_abilene();
        routing_ = build_routing(topo_);
        const std::size_t n = routing_.flow_count();
        const std::size_t t_total = 420;

        std::mt19937_64 rng(52718);
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
        // Pin the separation rank: the stress tests refit on windows
        // whose row interleaving is decided by the producer race, and
        // with a free 3-sigma rule an unlucky interleaving can classify
        // every axis normal (empty residual subspace -> the diagnoser's
        // identifier refuses to build). The concurrency contracts under
        // test are independent of the separation heuristic.
        cfg.separation.fixed_rank = 6;
        return cfg;
    }

    stream_open_config open_config(stream_kind kind, std::size_t boot_offset,
                                   refit_mode mode, ingest_options ingest) const {
        stream_open_config cfg;
        cfg.kind = kind;
        cfg.bootstrap_y = bootstrap_slice(boot_offset);
        if (kind == stream_kind::diagnoser) {
            cfg.a = routing_.a;
            cfg.streaming = diagnoser_config(mode);
        } else {
            cfg.max_rank = 8;
        }
        cfg.ingest = std::move(ingest);
        return cfg;
    }

    // Standalone (no server, no pool) twin: the parity reference an
    // ingest-fed stream is replayed against in sequence order.
    std::unique_ptr<stream_detector> standalone(stream_kind kind, std::size_t boot_offset,
                                                refit_mode mode = refit_mode::deferred) const {
        const matrix boot = bootstrap_slice(boot_offset);
        switch (kind) {
            case stream_kind::diagnoser:
                return std::make_unique<streaming_diagnoser>(boot, routing_.a,
                                                             diagnoser_config(mode));
            case stream_kind::tracking:
                return std::make_unique<tracking_detector>(boot, 8);
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

// Captures (sequence, result) pairs delivered by the drainer. Only ever
// written by the single active drainer (the role handoff orders the
// writes); read after the ingest edge is quiesced.
struct sink_capture {
    std::vector<std::pair<std::uint64_t, detection_result>> results;
    ingest_sink fn() {
        return [this](std::uint64_t seq, const detection_result& r) {
            results.emplace_back(seq, r);
        };
    }
};

// ---------------------------------------------------------------------------
// Single-producer parity: ingest is push with a sequence number.
// ---------------------------------------------------------------------------

TEST_F(IngestFixture, SingleProducerIngestMatchesPushForEveryRefitModeAndPoolSize) {
    for (const refit_mode mode : {refit_mode::blocking, refit_mode::deferred}) {
        const auto reference = standalone(stream_kind::diagnoser, 0, mode);
        std::vector<detection_result> expected;
        for (std::size_t r = k_boot; r < k_boot + 40; ++r) {
            expected.push_back(reference->push_bin(y_.row(r)));
        }

        for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
            stream_server server({.threads = threads});
            sink_capture capture;
            ingest_options ingest;
            ingest.capacity = 64;
            ingest.sink = capture.fn();
            const stream_id id = server.open_stream(
                open_config(stream_kind::diagnoser, 0, mode, std::move(ingest)));
            for (std::size_t r = k_boot; r < k_boot + 40; ++r) {
                const ingest_result res = server.ingest(id, y_.row(r));
                ASSERT_TRUE(res.ok());
                ASSERT_EQ(res.sequence, r - k_boot);
            }
            server.flush_stream(id);
            ASSERT_EQ(capture.results.size(), expected.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
                ASSERT_EQ(capture.results[i].first, i);
                expect_same_detection(expected[i], capture.results[i].second,
                                      "mode " + std::to_string(static_cast<int>(mode)) +
                                          " threads " + std::to_string(threads) + " bin " +
                                          std::to_string(i));
            }
            const ingest_stats st = server.ingest_statistics(id);
            EXPECT_EQ(st.accepted, expected.size());
            EXPECT_EQ(st.applied, expected.size());
            EXPECT_EQ(st.pending, 0u);
            EXPECT_EQ(server.stats(id).alarms, reference->alarm_count());
            EXPECT_EQ(server.stats(id).epoch, reference->model_epoch());
        }
    }
}

// ---------------------------------------------------------------------------
// The acceptance-criterion stress: N >= 4 producers hammer one stream
// concurrently; the applied output must be bit-identical to a standalone
// single-pusher detector replaying the bins in inbox sequence order, for
// every refit mode at pool sizes {0, 1, 2, 8}.
// ---------------------------------------------------------------------------

TEST_F(IngestFixture, FourProducerStressMatchesStandaloneReplayInSequenceOrder) {
    constexpr std::size_t k_producers = 4;
    constexpr std::size_t k_per_producer = 25;
    constexpr std::size_t k_total = k_producers * k_per_producer;

    struct leg {
        stream_kind kind;
        refit_mode mode;  // diagnoser only
    };
    const leg legs[] = {
        {stream_kind::diagnoser, refit_mode::blocking},
        {stream_kind::diagnoser, refit_mode::deferred},
        {stream_kind::tracking, refit_mode::deferred},
    };

    for (const leg& l : legs) {
        for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
            stream_server server({.threads = threads});
            sink_capture capture;
            ingest_options ingest;
            ingest.capacity = 128;
            ingest.policy = inbox_policy::block;
            ingest.sink = capture.fn();
            const stream_id id =
                server.open_stream(open_config(l.kind, 0, l.mode, std::move(ingest)));

            // Each producer ingests a disjoint row slice and records the
            // sequence its rows were assigned.
            std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> seq_rows(
                k_producers);
            std::vector<std::thread> producers;
            for (std::size_t p = 0; p < k_producers; ++p) {
                producers.emplace_back([&, p] {
                    for (std::size_t i = 0; i < k_per_producer; ++i) {
                        const std::size_t row = k_boot + p * k_per_producer + i;
                        const ingest_result r = server.ingest(id, y_.row(row));
                        ASSERT_TRUE(r.ok()) << "producer " << p << " bin " << i;
                        seq_rows[p].emplace_back(r.sequence, row);
                    }
                });
            }
            for (std::thread& t : producers) t.join();
            server.flush_stream(id);
            server.drain_all();

            // Reassemble the global sequence order: sequences must be a
            // gapless permutation of 0..k_total-1 with per-producer rows
            // in their ingest order.
            std::vector<std::size_t> row_of(k_total, 0);
            std::vector<bool> seen(k_total, false);
            for (std::size_t p = 0; p < k_producers; ++p) {
                std::uint64_t last = 0;
                bool first = true;
                for (const auto& [seq, row] : seq_rows[p]) {
                    ASSERT_LT(seq, k_total);
                    ASSERT_FALSE(seen[seq]) << "duplicate sequence " << seq;
                    seen[seq] = true;
                    row_of[seq] = row;
                    if (!first) {
                        ASSERT_GT(seq, last) << "producer order violated";
                    }
                    first = false;
                    last = seq;
                }
            }

            // Conservation and ordering of the applied output.
            const ingest_stats st = server.ingest_statistics(id);
            ASSERT_EQ(st.accepted, k_total);
            ASSERT_EQ(st.applied, k_total);
            ASSERT_EQ(st.dropped, 0u);
            ASSERT_EQ(st.pending, 0u);
            ASSERT_EQ(capture.results.size(), k_total);
            for (std::size_t i = 0; i < k_total; ++i) {
                ASSERT_EQ(capture.results[i].first, i) << "sink out of sequence order";
            }
            ASSERT_EQ(server.stats(id).processed, k_total);

            // Bit-exact replay against a standalone single-pusher twin fed
            // in sequence order.
            const auto twin = standalone(l.kind, 0, l.mode);
            std::size_t alarms = 0;
            for (std::size_t i = 0; i < k_total; ++i) {
                const detection_result want = twin->push_bin(y_.row(row_of[i]));
                if (want.anomalous) ++alarms;
                expect_same_detection(
                    want, capture.results[i].second,
                    "kind " + std::to_string(static_cast<int>(l.kind)) + " mode " +
                        std::to_string(static_cast<int>(l.mode)) + " threads " +
                        std::to_string(threads) + " seq " + std::to_string(i));
            }
            twin->drain();
            EXPECT_EQ(server.stats(id).alarms, twin->alarm_count());
            EXPECT_EQ(server.stats(id).epoch, twin->model_epoch());
            EXPECT_EQ(server.stats(id).alarms, alarms);
        }
    }
}

// Several streams fed by several producers each, over one shared pool:
// the per-stream drain roles must stay independent (no cross-stream
// perturbation) while every stream replays bit-exactly.
TEST_F(IngestFixture, ConcurrentProducersOnMultipleStreamsReplayIndependently) {
    constexpr std::size_t k_streams = 3;
    constexpr std::size_t k_producers_per_stream = 2;
    constexpr std::size_t k_per_producer = 20;
    stream_server server({.threads = 2});

    std::vector<stream_id> ids;
    std::vector<std::unique_ptr<sink_capture>> captures;
    for (std::size_t s = 0; s < k_streams; ++s) {
        captures.push_back(std::make_unique<sink_capture>());
        ingest_options ingest;
        ingest.capacity = 64;
        ingest.sink = captures.back()->fn();
        ids.push_back(server.open_stream(open_config(stream_kind::diagnoser, s * 10,
                                                     refit_mode::deferred,
                                                     std::move(ingest))));
    }

    std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> seq_rows(
        k_streams * k_producers_per_stream);
    std::vector<std::thread> producers;
    for (std::size_t s = 0; s < k_streams; ++s) {
        for (std::size_t p = 0; p < k_producers_per_stream; ++p) {
            const std::size_t slot = s * k_producers_per_stream + p;
            producers.emplace_back([&, s, p, slot] {
                for (std::size_t i = 0; i < k_per_producer; ++i) {
                    const std::size_t row = k_boot + s * 10 + p * k_per_producer + i;
                    const ingest_result r = server.ingest(ids[s], y_.row(row));
                    ASSERT_TRUE(r.ok());
                    seq_rows[slot].emplace_back(r.sequence, row);
                }
            });
        }
    }
    for (std::thread& t : producers) t.join();
    for (const stream_id id : ids) server.flush_stream(id);
    server.drain_all();

    constexpr std::size_t k_total = k_producers_per_stream * k_per_producer;
    for (std::size_t s = 0; s < k_streams; ++s) {
        std::vector<std::size_t> row_of(k_total, 0);
        for (std::size_t p = 0; p < k_producers_per_stream; ++p) {
            for (const auto& [seq, row] : seq_rows[s * k_producers_per_stream + p]) {
                ASSERT_LT(seq, k_total);
                row_of[seq] = row;
            }
        }
        const auto& results = captures[s]->results;
        ASSERT_EQ(results.size(), k_total);
        const auto twin = standalone(stream_kind::diagnoser, s * 10);
        for (std::size_t i = 0; i < k_total; ++i) {
            ASSERT_EQ(results[i].first, i);
            expect_same_detection(twin->push_bin(y_.row(row_of[i])), results[i].second,
                                  "stream " + std::to_string(s) + " seq " +
                                      std::to_string(i));
        }
        twin->drain();
        EXPECT_EQ(server.stats(ids[s]).epoch, twin->model_epoch());
    }
}

// ---------------------------------------------------------------------------
// Backpressure edges.
// ---------------------------------------------------------------------------

TEST_F(IngestFixture, RejectPolicyReturnsDistinctErrors) {
    stream_server server({.threads = 0});
    sink_capture capture;
    ingest_options ingest;
    ingest.capacity = 4;
    ingest.policy = inbox_policy::reject;
    ingest.auto_drain = false;
    ingest.sink = capture.fn();
    const stream_id id = server.open_stream(
        open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));

    // Unknown stream.
    EXPECT_EQ(server.ingest(id + 99, y_.row(k_boot)).error, ingest_error::unknown_stream);

    // Width mismatch (counted as rejected, nothing enqueued).
    const std::vector<double> narrow(y_.cols() - 1, 0.0);
    EXPECT_EQ(server.ingest(id, narrow).error, ingest_error::width_mismatch);
    EXPECT_EQ(server.ingest_statistics(id).rejected, 1u);
    EXPECT_EQ(server.ingest_statistics(id).pending, 0u);

    // Full inbox.
    for (std::size_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(server.ingest(id, y_.row(k_boot + i)).ok());
    }
    EXPECT_EQ(server.ingest(id, y_.row(k_boot + 4)).error, ingest_error::inbox_full);
    const ingest_stats st = server.ingest_statistics(id);
    EXPECT_EQ(st.accepted, 4u);
    EXPECT_EQ(st.rejected, 2u);
    EXPECT_EQ(st.pending, 4u);

    // A batch that does not fit is all-or-nothing.
    std::vector<std::span<const double>> batch = {y_.row(k_boot + 5), y_.row(k_boot + 6)};
    EXPECT_EQ(server.ingest_batch(id, batch).error, ingest_error::inbox_full);
    EXPECT_EQ(server.ingest_statistics(id).pending, 4u);

    // A batch longer than the ring itself is an error code under every
    // policy (the concurrent edge never throws), not an exception.
    std::vector<std::span<const double>> oversized(5, y_.row(k_boot));
    EXPECT_EQ(server.ingest_batch(id, oversized).error, ingest_error::inbox_full);
    EXPECT_EQ(server.ingest_statistics(id).pending, 4u);

    // Draining makes room again.
    server.flush_stream(id);
    EXPECT_EQ(server.ingest_statistics(id).applied, 4u);
    EXPECT_TRUE(server.ingest_batch(id, batch).ok());
    server.flush_stream(id);
    EXPECT_EQ(capture.results.size(), 6u);
    for (std::size_t i = 0; i < capture.results.size(); ++i) {
        EXPECT_EQ(capture.results[i].first, i);
    }
}

TEST_F(IngestFixture, DropOldestConservesStatsAndKeepsTheNewest) {
    stream_server server({.threads = 0});
    sink_capture capture;
    ingest_options ingest;
    ingest.capacity = 4;
    ingest.policy = inbox_policy::drop_oldest;
    ingest.auto_drain = false;
    ingest.sink = capture.fn();
    const stream_id id = server.open_stream(
        open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));

    for (std::size_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(server.ingest(id, y_.row(k_boot + i)).ok());
    }
    ingest_stats st = server.ingest_statistics(id);
    EXPECT_EQ(st.accepted, 10u);
    EXPECT_EQ(st.dropped, 6u);
    EXPECT_EQ(st.pending, 4u);
    EXPECT_EQ(st.accepted, st.applied + st.dropped + st.pending) << "conservation violated";

    server.flush_stream(id);
    st = server.ingest_statistics(id);
    EXPECT_EQ(st.applied, 4u);
    EXPECT_EQ(st.pending, 0u);
    EXPECT_EQ(st.accepted, st.applied + st.dropped + st.pending) << "conservation violated";

    // The survivors are the newest four bins (sequences 6..9), applied in
    // order and bit-identical to a standalone detector fed just those.
    ASSERT_EQ(capture.results.size(), 4u);
    const auto twin = standalone(stream_kind::tracking, 0);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(capture.results[i].first, 6 + i);
        expect_same_detection(twin->push_bin(y_.row(k_boot + 6 + i)),
                              capture.results[i].second, "survivor " + std::to_string(i));
    }
}

TEST_F(IngestFixture, BlockPolicyWaitsForTheDrainer) {
    stream_server server({.threads = 0});
    sink_capture capture;
    ingest_options ingest;
    ingest.capacity = 2;
    ingest.policy = inbox_policy::block;
    ingest.auto_drain = false;
    ingest.sink = capture.fn();
    const stream_id id = server.open_stream(
        open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));

    constexpr std::size_t k_bins = 7;
    std::atomic<std::size_t> ingested{0};
    std::thread producer([&] {
        for (std::size_t i = 0; i < k_bins; ++i) {
            ASSERT_TRUE(server.ingest(id, y_.row(k_boot + i)).ok());
            ingested.fetch_add(1, std::memory_order_relaxed);
        }
    });
    // The producer can enqueue at most 2 bins before blocking; flushing
    // releases it batch by batch.
    while (ingested.load(std::memory_order_relaxed) < k_bins) {
        server.flush_stream(id);
        std::this_thread::yield();
    }
    producer.join();
    server.flush_stream(id);

    const ingest_stats st = server.ingest_statistics(id);
    EXPECT_EQ(st.accepted, k_bins);
    EXPECT_EQ(st.applied, k_bins);
    ASSERT_EQ(capture.results.size(), k_bins);
    for (std::size_t i = 0; i < k_bins; ++i) EXPECT_EQ(capture.results[i].first, i);
}

TEST_F(IngestFixture, CloseStreamDrainsNonEmptyInboxAndWakesBlockedProducers) {
    stream_server server({.threads = 0});
    sink_capture capture;
    ingest_options ingest;
    ingest.capacity = 2;
    ingest.policy = inbox_policy::block;
    ingest.auto_drain = false;
    ingest.sink = capture.fn();
    const stream_id id = server.open_stream(
        open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));

    ASSERT_TRUE(server.ingest(id, y_.row(k_boot)).ok());
    ASSERT_TRUE(server.ingest(id, y_.row(k_boot + 1)).ok());

    std::atomic<int> blocked_error{-1};
    std::thread producer([&] {
        const ingest_result r = server.ingest(id, y_.row(k_boot + 2));  // blocks: full
        blocked_error.store(static_cast<int>(r.error), std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(blocked_error.load(std::memory_order_acquire), -1)
        << "producer should be blocked on the full inbox";

    // close_stream must wake the blocked producer (stream_closed) and
    // apply the two pending bins before unpublishing.
    server.close_stream(id);
    producer.join();
    EXPECT_EQ(blocked_error.load(), static_cast<int>(ingest_error::stream_closed));
    ASSERT_EQ(capture.results.size(), 2u);
    const auto twin = standalone(stream_kind::tracking, 0);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(capture.results[i].first, i);
        expect_same_detection(twin->push_bin(y_.row(k_boot + i)), capture.results[i].second,
                              "residue bin " + std::to_string(i));
    }
    EXPECT_EQ(server.stream_count(), 0u);
    EXPECT_EQ(server.ingest(id, y_.row(k_boot)).error, ingest_error::unknown_stream);
}

TEST_F(IngestFixture, IngestBatchAssignsConsecutiveSequencesUnderContention) {
    stream_server server({.threads = 0});
    sink_capture capture;
    ingest_options ingest;
    ingest.capacity = 64;
    ingest.auto_drain = false;
    ingest.sink = capture.fn();
    const stream_id id = server.open_stream(
        open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));

    constexpr std::size_t k_threads = 4;
    constexpr std::size_t k_batches = 4;
    constexpr std::size_t k_batch_size = 3;
    std::vector<std::vector<std::uint64_t>> first_seqs(k_threads);
    std::vector<std::thread> producers;
    for (std::size_t t = 0; t < k_threads; ++t) {
        producers.emplace_back([&, t] {
            for (std::size_t b = 0; b < k_batches; ++b) {
                std::vector<std::span<const double>> batch;
                for (std::size_t i = 0; i < k_batch_size; ++i) {
                    batch.push_back(y_.row(k_boot + (t * k_batches + b) * k_batch_size + i));
                }
                const ingest_result r = server.ingest_batch(id, batch);
                ASSERT_TRUE(r.ok());
                ASSERT_EQ(r.accepted, k_batch_size);
                first_seqs[t].push_back(r.sequence);
            }
        });
    }
    for (std::thread& t : producers) t.join();
    server.flush_stream(id);

    // Every batch's first sequence must start a run of k_batch_size that
    // no other batch overlaps: the set of first sequences taken mod
    // k_batch_size partitions 0..total-1 exactly.
    constexpr std::size_t k_total = k_threads * k_batches * k_batch_size;
    std::vector<bool> covered(k_total, false);
    for (const auto& seqs : first_seqs) {
        for (const std::uint64_t first : seqs) {
            for (std::size_t i = 0; i < k_batch_size; ++i) {
                ASSERT_LT(first + i, k_total);
                ASSERT_FALSE(covered[first + i]) << "batch runs overlap at " << first + i;
                covered[first + i] = true;
            }
        }
    }
    ASSERT_EQ(capture.results.size(), k_total);
    for (std::size_t i = 0; i < k_total; ++i) ASSERT_EQ(capture.results[i].first, i);
}

// ---------------------------------------------------------------------------
// Checkpoint format v3: inbox residue round trip, and backward
// compatibility with version-2 records.
// ---------------------------------------------------------------------------

TEST_F(IngestFixture, SnapshotWithInboxResidueRestoresAndReplaysExactly) {
    const std::string dir = temp_dir("ingest_residue_snapshot");
    stream_server original({.threads = 2});
    sink_capture original_capture;
    ingest_options ingest;
    ingest.capacity = 32;
    ingest.auto_drain = false;
    ingest.sink = original_capture.fn();
    const stream_id id = original.open_stream(
        open_config(stream_kind::diagnoser, 0, refit_mode::deferred, std::move(ingest)));

    // Apply 11 bins (the deferred refit triggers at 9, swaps at 13: a
    // pending refit is in the checkpoint too), then leave 5 more bins
    // *pending* in the inbox.
    for (std::size_t i = 0; i < 11; ++i) {
        ASSERT_TRUE(original.ingest(id, y_.row(k_boot + i)).ok());
    }
    original.flush_stream(id);
    for (std::size_t i = 11; i < 16; ++i) {
        ASSERT_TRUE(original.ingest(id, y_.row(k_boot + i)).ok());
    }
    {
        const auto& diag = dynamic_cast<const streaming_diagnoser&>(original.stream(id));
        ASSERT_TRUE(diag.refit_pending());
    }
    ASSERT_EQ(original.ingest_statistics(id).pending, 5u);

    original.snapshot_all(dir);

    // The per-stream record is a format-v3 server_stream container
    // (read_header rejects every other version).
    {
        const std::string bytes = ckpt::read_file(
            (std::filesystem::path(dir) / ("stream_" + std::to_string(id) + ".ckpt")).string());
        ckpt::reader in(bytes);
        EXPECT_EQ(ckpt::read_header(in), "server_stream");
    }

    // Restore into a different pool size; the residue must come back
    // pending, with counters and sequence numbering intact.
    stream_server restored({.threads = 1});
    restored.restore_all(dir);
    sink_capture restored_capture;
    restored.set_ingest_sink(id, restored_capture.fn());
    {
        const ingest_stats orig_stats = original.ingest_statistics(id);
        const ingest_stats rest_stats = restored.ingest_statistics(id);
        EXPECT_EQ(rest_stats.accepted, orig_stats.accepted);
        EXPECT_EQ(rest_stats.applied, orig_stats.applied);
        EXPECT_EQ(rest_stats.pending, 5u);
        EXPECT_EQ(rest_stats.next_sequence, orig_stats.next_sequence);
    }

    // Flush both sides: the residue applies first, in sequence order,
    // bit-identically; then both continue with identical new bins.
    original.flush_stream(id);
    restored.flush_stream(id);
    for (std::size_t i = 16; i < 40; ++i) {
        ASSERT_TRUE(original.ingest(id, y_.row(k_boot + i)).ok());
        ASSERT_TRUE(restored.ingest(id, y_.row(k_boot + i)).ok());
        original.flush_stream(id);
        restored.flush_stream(id);
    }
    // original_capture saw sequences 0..39; restored_capture saw 11..39.
    ASSERT_EQ(original_capture.results.size(), 40u);
    ASSERT_EQ(restored_capture.results.size(), 29u);
    for (std::size_t i = 0; i < restored_capture.results.size(); ++i) {
        const auto& [seq, got] = restored_capture.results[i];
        ASSERT_EQ(seq, 11 + i);
        expect_same_detection(original_capture.results[11 + i].second, got,
                              "replay seq " + std::to_string(seq));
    }
    EXPECT_EQ(restored.stats(id).epoch, original.stats(id).epoch);
    EXPECT_EQ(restored.stats(id).alarms, original.stats(id).alarms);

    std::filesystem::remove_all(dir);
}

TEST_F(IngestFixture, SnapshotAndDrainAllWhileSinksReadTheServerDoNotDeadlock) {
    // Regression: an ingest sink that calls back into the server (as the
    // backbone_monitor example does) runs on the drainer's thread. A
    // snapshot_all/drain_all that held the server-wide lock while waiting
    // for that drain to retire would deadlock; maintenance must quiesce
    // streams without starving sink callbacks. A diagnoser in deferred
    // mode keeps refits genuinely in flight so drain_all has work, and
    // drain_all must take the per-stream drain role first -- joining a
    // detector mid-apply would race the drainer.
    stream_server server({.threads = 2});
    std::atomic<std::size_t> sink_reads{0};
    ingest_options ingest;
    ingest.capacity = 64;
    const stream_id id = server.open_stream(
        open_config(stream_kind::diagnoser, 0, refit_mode::deferred, std::move(ingest)));
    server.set_ingest_sink(id, [&](std::uint64_t, const detection_result&) {
        // Read accessors from inside the drain: allowed by contract.
        (void)server.stats(id);
        (void)server.ingest_statistics(id);
        sink_reads.fetch_add(1, std::memory_order_relaxed);
    });

    const std::string dir = temp_dir("ingest_snapshot_under_load");
    std::atomic<bool> stop{false};
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < 2; ++p) {
        producers.emplace_back([&, p] {
            std::size_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                (void)server.ingest(id, y_.row(k_boot + (p * 40 + i) % 200));
                ++i;
            }
        });
    }
    for (std::size_t s = 0; s < 5; ++s) {
        server.snapshot_all(dir);
        server.drain_all();
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : producers) t.join();
    server.flush_stream(id);
    EXPECT_GT(sink_reads.load(), 0u);
    const ingest_stats st = server.ingest_statistics(id);
    EXPECT_EQ(st.accepted, st.applied + st.dropped + st.pending);
    std::filesystem::remove_all(dir);
}

TEST_F(IngestFixture, SnapshotCompletesWhileAProducerIsBlockedOnAFullInbox) {
    // Regression: a block-policy producer parked on a full ring must not
    // hold the stream quiescence lock -- snapshot_all has to complete
    // (freezing the full inbox as residue) while the producer stays
    // parked, and the producer must finish once someone drains.
    stream_server server({.threads = 0});
    sink_capture capture;
    ingest_options ingest;
    ingest.capacity = 2;
    ingest.policy = inbox_policy::block;
    ingest.auto_drain = false;
    ingest.sink = capture.fn();
    const stream_id id = server.open_stream(
        open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));

    ASSERT_TRUE(server.ingest(id, y_.row(k_boot)).ok());
    ASSERT_TRUE(server.ingest(id, y_.row(k_boot + 1)).ok());
    std::atomic<bool> third_done{false};
    std::thread producer([&] {
        ASSERT_TRUE(server.ingest(id, y_.row(k_boot + 2)).ok());  // parks: ring full
        third_done.store(true, std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_FALSE(third_done.load(std::memory_order_acquire));

    const std::string dir = temp_dir("ingest_snapshot_blocked_producer");
    server.snapshot_all(dir);  // must not hang behind the parked producer
    EXPECT_EQ(server.ingest_statistics(id).pending, 2u);

    server.flush_stream(id);  // frees space; the parked producer finishes
    producer.join();
    EXPECT_TRUE(third_done.load());
    server.flush_stream(id);
    EXPECT_EQ(server.ingest_statistics(id).applied, 3u);
    std::filesystem::remove_all(dir);
}

TEST_F(IngestFixture, FailedApplyCountsTheBinSoStatsStayConserved) {
    // A detector error surfacing mid-drain consumes the popped bin; it
    // must be accounted (as dropped) or the conservation invariant would
    // be silently broken for the rest of the stream's life.
    stream_server server({.threads = 0});
    ingest_options ingest;
    ingest.capacity = 16;
    stream_open_config cfg =
        open_config(stream_kind::diagnoser, 0, refit_mode::blocking, std::move(ingest));
    cfg.streaming.refit_interval = 3;
    cfg.streaming.refit_observer = [] { throw std::runtime_error("fit exploded"); };
    const stream_id id = server.open_stream(std::move(cfg));

    ASSERT_TRUE(server.ingest(id, y_.row(k_boot)).ok());
    ASSERT_TRUE(server.ingest(id, y_.row(k_boot + 1)).ok());
    // Bin 3 triggers the blocking refit, whose observer throws inside the
    // auto-drain; the error propagates to the ingesting caller.
    EXPECT_THROW((void)server.ingest(id, y_.row(k_boot + 2)), std::runtime_error);

    const ingest_stats st = server.ingest_statistics(id);
    EXPECT_EQ(st.accepted, 3u);
    EXPECT_EQ(st.applied, 2u);
    EXPECT_EQ(st.dropped, 1u);
    EXPECT_EQ(st.pending, 0u);
    EXPECT_EQ(st.accepted, st.applied + st.dropped + st.pending) << "conservation violated";
}

TEST_F(IngestFixture, MalformedInboxCapacityInCheckpointIsRejected) {
    const std::string dir = temp_dir("ingest_bad_capacity");
    {
        stream_server server({.threads = 0});
        ingest_options ingest;
        ingest.capacity = 8;
        (void)server.open_stream(
            open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));
        server.snapshot_all(dir);
    }
    // Corrupt the capacity field: the first u64 after the server_stream
    // header (8 magic + 9 version + 9 tag length + 13 tag bytes = 39),
    // whose 8 value bytes follow its 'U' tag.
    const std::string path = (std::filesystem::path(dir) / "stream_1.ckpt").string();
    std::string bytes = ckpt::read_file(path);
    ASSERT_EQ(bytes.at(39), 'U');
    bytes.replace(40, 8, std::string(8, '\xff'));
    ckpt::write_file(path, bytes);
    stream_server restored({.threads = 0});
    try {
        restored.restore_all(dir);
        FAIL() << "corrupted inbox capacity was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("inbox capacity"), std::string::npos)
            << "got: " << e.what();
    }
    std::filesystem::remove_all(dir);
}

TEST_F(IngestFixture, RecordVersionsOtherThanThreeAreRejected) {
    // Version 3 is the only version written in the tagged little-endian
    // encoding, so it is the only one that loads. Patch the version field
    // of a fresh record to 1, 2 (the last native-encoding version) and 4:
    // each must fail with a clear error.
    incremental_pca_tracker tracker(bootstrap_slice(0), 6);
    ckpt::writer out;
    tracker.save(out);
    const std::string v3_bytes = out.release();

    const auto with_version = [&](std::uint64_t version) {
        std::string bytes = v3_bytes;
        // 8-byte magic, then the version's 'U' tag and its 8 value bytes.
        EXPECT_EQ(bytes.at(8), 'U');
        for (std::size_t b = 0; b < 8; ++b) {
            bytes[9 + b] = static_cast<char>((version >> (8 * b)) & 0xff);
        }
        return bytes;
    };

    {
        const std::string bytes = with_version(3);
        ckpt::reader in(bytes);
        const std::unique_ptr<stream_detector> restored = load_stream_detector(in);
        ASSERT_NE(restored, nullptr);
        EXPECT_EQ(restored->dimension(), y_.cols());
    }
    for (const std::uint64_t bad : {1, 2, 4}) {
        const std::string bytes = with_version(bad);
        ckpt::reader in(bytes);
        try {
            load_stream_detector(in);
            FAIL() << "version " << bad << " record was accepted";
        } catch (const ckpt::format_error& e) {
            EXPECT_NE(std::string(e.what()).find("unsupported format version " +
                                                 std::to_string(bad)),
                      std::string::npos)
                << "got: " << e.what();
        }
    }
}

TEST_F(IngestFixture, RestoreRejectsRecordsThatBreakCounterConservation) {
    // Every writer holds the drain role and the exclusive entry lock, so
    // a record always satisfies accepted == applied + dropped + residue.
    // A record that breaks it must not restore: ingest_statistics would
    // misreport pending for the rest of the stream's life.
    stream_server server({.threads = 0});
    ingest_options ingest;
    ingest.capacity = 8;
    ingest.auto_drain = false;
    const stream_id id = server.open_stream(
        open_config(stream_kind::tracking, 0, refit_mode::deferred, std::move(ingest)));
    for (std::size_t i = 0; i < 5; ++i) {
        ASSERT_TRUE(server.ingest(id, y_.row(k_boot + i)).ok());
        if (i == 2) server.flush_stream(id);
    }
    ASSERT_EQ(server.ingest_statistics(id).pending, 2u);
    std::ostringstream out(std::ios::binary);
    server.snapshot_stream(id, out, ckpt::encoding::interchange);
    const std::string good = std::move(out).str();

    // Counter fields follow the 39-byte server_stream header as 9-byte
    // 'U' tokens: capacity, policy, auto_drain, then accepted, applied,
    // dropped. Bump one value byte of each counter in turn.
    for (const std::size_t field : {3u, 4u, 5u}) {
        const std::size_t tag_at = 39 + 9 * field;
        std::string patched = good;
        ASSERT_EQ(patched.at(tag_at), 'U');
        patched[tag_at + 1] = static_cast<char>(patched[tag_at + 1] + 1);

        std::istringstream in(patched, std::ios::binary);
        try {
            (void)server.restore_stream(in);
            ADD_FAILURE() << "counter field " << field << " patched, record restored";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("conservation"), std::string::npos)
                << "field " << field << ": got " << e.what();
        }
        EXPECT_THROW((void)server.restore_stream(patched), ckpt::format_error);

        // Over the wire the same record is a typed malformed payload.
        const net::frame response = net::handle_request(
            server, net::frame{static_cast<std::uint8_t>(net::msg_type::req_restore), patched});
        ASSERT_EQ(static_cast<net::msg_type>(response.type), net::msg_type::resp_error);
        EXPECT_EQ(net::decode_error_response(response.payload).code,
                  net::wire_errc::malformed_payload);
    }
    // The unpatched record restores, conserved.
    std::istringstream in(good, std::ios::binary);
    const stream_id restored = server.restore_stream(in);
    const ingest_stats st = server.ingest_statistics(restored);
    EXPECT_EQ(st.pending, 2u);
    EXPECT_EQ(st.accepted, st.applied + st.dropped + st.pending);
}

}  // namespace
}  // namespace netdiag
