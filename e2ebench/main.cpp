// netdiag_e2ebench: end-to-end benchmark of the wire serving path.
//
// One process hosts the whole path a collector's bin takes: three
// remote_collector clients (one thread, one connection and one stream
// each) speak the wire protocol over loopback TCP to an in-process
// netdiag_frontend, which embeds a stream_server with a 2-thread pool.
// Every bin is generated up front from --seed with build_dataset on the
// Abilene or Sprint topology; the program under test only ever sees those
// bins. The loop is closed: each collector waits for its reply before it
// sends the next request.
//
//   netdiag_e2ebench --workload collect_b1|backfill_b256|migrate_b16
//                    --seed N --seconds S --trace 0|1
//                    [--fault perturb_verdict|wrong_width|withhold_sink]
//                    [--commit ID] [--trace-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced for S/2 seconds, then traced for S/2 seconds, and prints the
// per-layer metrics (see README.md). Either way every delivered verdict
// is replayed through a standalone detector afterwards and must match
// bit for bit. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 0 ok, 2 usage or non-Release build, 3 a correctness gate
// tripped (verdict parity, delivery or counter conservation).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/simd.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "measurement/centering.h"
#include "measurement/dataset.h"
#include "measurement/presets.h"
#include "net/frontend.h"
#include "net/migration.h"
#include "net/protocol.h"
#include "net/remote_collector.h"
#include "net/wire.h"
#include "serve/stream_server.h"
#include "subspace/diagnoser.h"
#include "subspace/online.h"
#include "topology/builders.h"

// ---------------------------------------------------------------------------
// Whole-process allocation counter: a replaced global operator new. Counts
// land in one of 64 cache-line-padded slots chosen per thread, so counting
// does not serialize the threads it observes.
// ---------------------------------------------------------------------------
namespace {

struct alignas(64) alloc_slot {
    std::atomic<std::uint64_t> count{0};
};
alloc_slot g_alloc_slots[64];
std::atomic<unsigned> g_next_alloc_slot{0};

alloc_slot& my_alloc_slot() noexcept {
    thread_local const unsigned slot =
        g_next_alloc_slot.fetch_add(1, std::memory_order_relaxed) % 64;
    return g_alloc_slots[slot];
}

std::uint64_t allocations() noexcept {
    std::uint64_t total = 0;
    for (const alloc_slot& s : g_alloc_slots) total += s.count.load(std::memory_order_relaxed);
    return total;
}

}  // namespace

void* operator new(std::size_t bytes) {
    my_alloc_slot().count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
    throw std::bad_alloc();
}
// GCC cannot see that the deletes below pair with the malloc above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace netdiag;
using clk = std::chrono::steady_clock;

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clk::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------------------
// The benchmark's own bookkeeping: append-only logs in fixed chunks that
// are zero-filled (so resident) when allocated and never reallocated. The
// byte total is subtracted from the peak RSS, so a faster program that
// delivers more bins does not read as a bigger one.
// ---------------------------------------------------------------------------
std::atomic<std::size_t> g_bookkeeping_bytes{0};

template <typename T>
class chunked_log {
public:
    static constexpr std::size_t k_chunk = 1u << 14;

    void push(const T& value) {
        if (size_ % k_chunk == 0) {
            chunks_.push_back(std::make_unique<T[]>(k_chunk));
            g_bookkeeping_bytes.fetch_add(k_chunk * sizeof(T), std::memory_order_relaxed);
        }
        chunks_[size_ / k_chunk][size_ % k_chunk] = value;
        ++size_;
    }
    std::size_t size() const noexcept { return size_; }
    const T& operator[](std::size_t i) const noexcept { return chunks_[i / k_chunk][i % k_chunk]; }
    T& operator[](std::size_t i) noexcept { return chunks_[i / k_chunk][i % k_chunk]; }

private:
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::size_t size_ = 0;
};

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

// Bit-exact fingerprint of one verdict: flag, SPE and threshold.
std::uint64_t verdict_hash(const detection_result& r) {
    std::uint64_t h = splitmix64(std::bit_cast<std::uint64_t>(r.spe));
    h = splitmix64(h ^ std::bit_cast<std::uint64_t>(r.threshold));
    return splitmix64(h ^ (r.anomalous ? 1u : 0u));
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------
struct workload {
    const char* name;
    bool sprint;             // Sprint (49 links) instead of Abilene (41)
    stream_kind kind;        // tracking or diagnoser
    std::size_t batch;       // bins per ingest request
    std::size_t window;      // diagnoser window; bootstrap rows for both kinds
    std::size_t inbox;       // ingest ring capacity (0 = tuning default)
    std::size_t migrate_every;  // requests between moves of a collector's stream
};

// Moves are migrate_b16's point. On the other two they are rare (under 5%
// of collector time) and there so that every workload reports migration
// latency under load. 45 x 256 bins is 80 refit intervals, so each
// backfill move lands at the same point of the refit cycle instead of
// drifting through it: a stream holding a finished refit that waits for
// its swap bin carries it in its record and moves slower.
constexpr workload k_workloads[] = {
    {"collect_b1", false, stream_kind::tracking, 1, 432, 0, 2000},
    {"backfill_b256", false, stream_kind::diagnoser, 256, 432, 256, 45},
    {"migrate_b16", true, stream_kind::diagnoser, 16, 1008, 256, 20},
};

constexpr std::size_t k_feeds = 3;           // collectors == connections == streams
constexpr std::size_t k_pool_threads = 2;    // the server's engine pool
constexpr std::size_t k_pool_bins = 2016;    // two weeks of 10-minute bins, cycled
constexpr std::size_t k_refit_interval = 144;
constexpr std::size_t k_swap_horizon = 8;
constexpr std::size_t k_max_rank = 10;
constexpr double k_confidence = 0.999;
constexpr std::size_t k_setup_reps = 61;
// Latency statistics are medians over chunks of consecutive samples, sized
// so each chunk's highest reported percentile has 10 samples beyond it.
constexpr std::size_t k_chunk_requests = 1000;  // p99
constexpr std::size_t k_chunk_moves = 100;      // p90
// The timed phase of an untraced run is cut into this many equal
// sub-windows for the CPU counters; cpu_us_per_bin is their median.
constexpr std::size_t k_subwindows = 5;
constexpr double k_warmup_s = 0.5;

// One collector's input: bootstrap rows, routing matrix, and the pool of
// bins it cycles through (pre-batched so the send loop copies nothing).
struct feed {
    matrix bootstrap;
    matrix a;
    std::vector<std::vector<double>> bins;
    std::vector<std::vector<std::vector<double>>> batches;  // batch > 1 only
};

feed make_feed(const workload& w, std::uint64_t seed, std::size_t index) {
    dataset_config cfg = w.sprint ? sprint1_config() : abilene_config();
    cfg.traffic.bins = w.window + k_pool_bins;
    cfg.traffic.anomaly_count = cfg.traffic.anomaly_count * cfg.traffic.bins / 1008;
    cfg.gravity.seed = splitmix64(seed * 4 + 0);  // one network per run
    cfg.traffic.seed = splitmix64(seed * 4 + 1 + index * 16);
    cfg.sampler.seed = splitmix64(seed * 4 + 2 + index * 16);
    const dataset ds = build_dataset(w.sprint ? make_sprint_europe() : make_abilene(), cfg);

    feed f;
    f.a = ds.routing.a;
    f.bootstrap.assign(w.window, ds.link_count());
    for (std::size_t t = 0; t < w.window; ++t) f.bootstrap.set_row(t, ds.link_loads.row(t));
    for (std::size_t t = 0; t < k_pool_bins; ++t) {
        const auto row = ds.link_loads.row(w.window + t);
        f.bins.emplace_back(row.begin(), row.end());
    }
    if (w.batch > 1) {
        const std::size_t cycle = std::lcm(k_pool_bins, w.batch) / w.batch;
        for (std::size_t b = 0; b < cycle; ++b) {
            std::vector<std::vector<double>> batch;
            for (std::size_t j = 0; j < w.batch; ++j) {
                batch.push_back(f.bins[(b * w.batch + j) % k_pool_bins]);
            }
            f.batches.push_back(std::move(batch));
        }
    }
    return f;
}

streaming_config make_streaming(const workload& w) {
    streaming_config s;
    s.window = w.window;
    s.refit_interval = k_refit_interval;
    s.confidence = k_confidence;
    s.mode = refit_mode::deferred;
    s.swap_horizon = k_swap_horizon;
    return s;
}

stream_open_config make_open_config(const workload& w, const feed& f, ingest_sink sink) {
    stream_open_config cfg;
    cfg.kind = w.kind;
    cfg.bootstrap_y = f.bootstrap;
    cfg.a = f.a;
    cfg.streaming = make_streaming(w);
    cfg.max_rank = k_max_rank;
    cfg.confidence = k_confidence;
    cfg.ingest.capacity = w.inbox;
    cfg.ingest.policy = inbox_policy::block;
    cfg.ingest.sink = std::move(sink);
    return cfg;
}

// The parity reference: the same detector, alone, with no pool.
std::unique_ptr<stream_detector> make_reference(const workload& w, const feed& f) {
    if (w.kind == stream_kind::diagnoser) {
        return std::make_unique<streaming_diagnoser>(f.bootstrap, f.a, make_streaming(w));
    }
    return std::make_unique<tracking_detector>(f.bootstrap, k_max_rank, k_confidence,
                                               separation_config{}, nullptr, false);
}

// ---------------------------------------------------------------------------
// Planted faults for the self-test (README.md, run.py --self-test).
// ---------------------------------------------------------------------------
enum class fault { none, perturb_verdict, wrong_width, withhold_sink };

constexpr std::uint64_t k_fault_sequence = 1000;     // perturbed / withheld bin
constexpr std::uint64_t k_fault_request = 500;       // wrong-width request

// ---------------------------------------------------------------------------
// Ingest sink: one per feed, following its stream across migrations.
// Deliveries arrive in sequence order from whichever thread drains; the
// drain role serializes them, so the log needs no lock.
// ---------------------------------------------------------------------------
struct verdict_entry {
    std::int64_t t_ns = -1;  // -1: never delivered
    std::uint64_t hash = 0;
};

struct sink_state {
    chunked_log<verdict_entry> log;  // index == sequence
    std::uint64_t duplicates = 0;    // sequence delivered twice or out of order
    std::uint64_t perturb_at = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t withhold_at = std::numeric_limits<std::uint64_t>::max();

    void deliver(std::uint64_t seq, const detection_result& r) {
        const std::int64_t t = now_ns();
        if (seq == withhold_at) return;
        if (seq < log.size()) {
            ++duplicates;
            return;
        }
        while (log.size() < seq) log.push(verdict_entry{});
        std::uint64_t h = verdict_hash(r);
        if (seq == perturb_at) h ^= 1;
        log.push(verdict_entry{t, h});
    }
};

ingest_sink make_sink(sink_state* st) {
    return [st](std::uint64_t seq, const detection_result& r) { st->deliver(seq, r); };
}

// ---------------------------------------------------------------------------
// Spans: recorded only by the benchmark, around its calls into a layer's
// public function. Kept per thread in memory, written out at the end.
// ---------------------------------------------------------------------------
enum span_name : std::uint32_t {
    sp_collector_ingest,  // net: remote_collector::ingest / ingest_batch
    sp_migrate,           // net: migrate_stream(remote_collector&, ...)
    sp_set_sink,          // serve: set_ingest_sink after a move
    sp_stage_request,     // one replayed request in the stage pass
    sp_encode_req,        // protocol: encode(ingest_batch_request)
    sp_encode_frame,      // wire: encode_frame
    sp_decode_frame,      // wire: frame_decoder feed + next
    sp_decode_req,        // protocol: decode_ingest_batch_request
    sp_ingest_batch,      // serve: stream_server::ingest_batch
    sp_enqueue,           // serve: the same call on a stream without auto-drain
    sp_handle_request,    // protocol: handle_request
    sp_decode_resp,       // protocol: decode_ingest_batch_response
    sp_snapshot,          // measurement: snapshot_stream
    sp_restore,           // measurement: restore_stream
    sp_crc,               // wire: crc32
    sp_push_bin,          // subspace: push_bin (parity replay, sampled)
    sp_refit,             // subspace: volume_anomaly_diagnoser fit
    sp_pca_fit,           // linalg: covariance + sym_eigen
};

constexpr const char* k_span_names[] = {
    "net.remote_collector.ingest",
    "net.migrate_stream",
    "serve.set_ingest_sink",
    "bench.stage_request",
    "protocol.encode",
    "wire.encode_frame",
    "wire.frame_decoder",
    "protocol.decode_request",
    "serve.ingest_batch",
    "serve.ingest_batch_no_drain",
    "protocol.handle_request",
    "protocol.decode_response",
    "measurement.snapshot_stream",
    "measurement.restore_stream",
    "wire.crc32",
    "subspace.push_bin",
    "subspace.refit",
    "linalg.pca_fit",
};

struct span_record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t name = 0;
};

std::atomic<std::uint64_t> g_next_span{1};

// Keeps timed CRC loops from being optimized away.
volatile std::uint32_t g_crc_sink = 0;

struct span_log {
    chunked_log<span_record> spans;
    std::uint64_t add(span_name name, std::int64_t start, std::int64_t end,
                      std::uint64_t request, std::uint64_t parent = 0) {
        const std::uint64_t id = g_next_span.fetch_add(1, std::memory_order_relaxed);
        spans.push(span_record{id, parent, request, start, end, name});
        return id;
    }
};

// ---------------------------------------------------------------------------
// The serving rig: server(s), frontend(s), and one connection per feed per
// frontend. Members are declared so teardown closes connections first,
// then frontends, then servers.
// ---------------------------------------------------------------------------
struct rig {
    std::array<std::unique_ptr<stream_server>, 2> server;
    std::array<std::unique_ptr<net::netdiag_frontend>, 2> frontend;
    std::array<std::vector<net::remote_collector>, 2> conn;
    // Each feed's current home, packed as (server << 48) | stream id;
    // written by the feed's collector, read by the pending poller.
    std::array<std::atomic<std::uint64_t>, k_feeds> home{};

    static std::uint64_t pack(int s, std::uint64_t id) {
        return (static_cast<std::uint64_t>(s) << 48) | id;
    }
    int home_server(std::size_t f) const { return static_cast<int>(home[f].load() >> 48); }
    std::uint64_t home_id(std::size_t f) const { return home[f].load() & ((1ull << 48) - 1); }
    // Counters of feed f's stream, read from one consistent home.
    ingest_stats home_stats(std::size_t f) const {
        const std::uint64_t h = home[f].load();
        return server[h >> 48]->ingest_statistics(h & ((1ull << 48) - 1));
    }

    // Brings up server `s` with its frontend (streams opened by the caller).
    void start_server(int s) {
        server[s] = std::make_unique<stream_server>(stream_server_config{k_pool_threads});
    }
    void start_frontend(int s) {
        frontend[s] = std::make_unique<net::netdiag_frontend>(*server[s]);
        for (std::size_t f = 0; f < k_feeds; ++f) conn[s].emplace_back(frontend[s]->port());
    }
};

// Timed: server construction, the streams' bootstrap fits, frontend bind
// and collector connect.
std::unique_ptr<rig> build_rig(const workload& w, const std::vector<feed>& feeds,
                               std::vector<sink_state>& sinks, double& seconds) {
    const auto t0 = clk::now();
    auto r = std::make_unique<rig>();
    r->start_server(0);
    for (std::size_t f = 0; f < k_feeds; ++f) {
        const stream_id id =
            r->server[0]->open_stream(make_open_config(w, feeds[f], make_sink(&sinks[f])));
        r->home[f].store(rig::pack(0, id));
    }
    r->start_frontend(0);
    r->start_server(1);
    r->start_frontend(1);
    seconds = std::chrono::duration<double>(clk::now() - t0).count();
    return r;
}

// ---------------------------------------------------------------------------
// Collector threads.
// ---------------------------------------------------------------------------
enum class op_kind : std::uint8_t { ingest, migrate };

struct request_record {
    std::int64_t t_send = 0;
    std::int64_t t_recv = 0;
    std::uint64_t seq = 0;     // first sequence of an accepted run
    std::uint32_t cursor = 0;  // index of the request's first bin in the pool
    std::uint16_t count = 0;   // bins in the request
    op_kind kind = op_kind::ingest;
    bool ok = false;
};

struct feed_run {
    chunked_log<request_record> ops;
    span_log trace;
};

// A span's request: the feed and the index of the operation in its log.
std::uint64_t request_id(std::size_t feed, std::size_t op) {
    return (static_cast<std::uint64_t>(feed) << 40) | op;
}

struct run_plan {
    std::int64_t end_ns = 0;
    std::int64_t trace_from_ns = std::numeric_limits<std::int64_t>::max();
};

void collector_loop(const workload& w, const feed& fd, std::size_t f, rig& rg,
                    std::vector<sink_state>& sinks, feed_run& run, const run_plan& plan,
                    fault planted) {
    int cur = rg.home_server(f);
    std::uint64_t id = rg.home_id(f);
    const std::size_t m = fd.bins.front().size();
    for (std::uint64_t r = 0;; ++r) {
        if (r % w.migrate_every == w.migrate_every - 1) {
            request_record rec;
            rec.kind = op_kind::migrate;
            rec.t_send = now_ns();
            if (rec.t_send >= plan.end_ns) break;
            const int other = 1 - cur;
            try {
                const std::uint64_t moved =
                    net::migrate_stream(rg.conn[cur][f], id, rg.conn[other][f]);
                rec.t_recv = now_ns();
                rg.server[other]->set_ingest_sink(moved, make_sink(&sinks[f]));
                const std::int64_t t_sink = now_ns();
                cur = other;
                id = moved;
                rg.home[f].store(rig::pack(cur, id));
                rec.ok = true;
                if (rec.t_send >= plan.trace_from_ns) {
                    const std::uint64_t req = request_id(f, run.ops.size());
                    const std::uint64_t parent =
                        run.trace.add(sp_migrate, rec.t_send, rec.t_recv, req);
                    run.trace.add(sp_set_sink, rec.t_recv, t_sink, req, parent);
                }
            } catch (const std::exception&) {
                rec.t_recv = now_ns();
            }
            run.ops.push(rec);
        }

        request_record rec;
        rec.cursor = static_cast<std::uint32_t>((r * w.batch) % k_pool_bins);
        rec.count = static_cast<std::uint16_t>(w.batch);
        rec.t_send = now_ns();
        if (rec.t_send >= plan.end_ns) break;
        net::remote_collector& conn = rg.conn[cur][f];
        try {
            ingest_result res;
            if (planted == fault::wrong_width && f == k_feeds - 1 && r == k_fault_request) {
                res = conn.ingest(id, std::span<const double>(fd.bins[rec.cursor]).first(m - 1));
            } else if (w.batch == 1) {
                res = conn.ingest(id, fd.bins[rec.cursor]);
            } else {
                res = conn.ingest_batch(id, fd.batches[r % fd.batches.size()]);
            }
            rec.t_recv = now_ns();
            rec.ok = res.ok() && res.accepted == w.batch;
            rec.seq = res.sequence;
        } catch (const std::exception&) {
            rec.t_recv = now_ns();
            // A broken transport: reconnect for the next attempt. Every
            // attempt until the deadline counts, so a stream that stops
            // early shows as failures rather than as a shorter run.
            try {
                conn = net::remote_collector(rg.frontend[cur]->port());
            } catch (const std::exception&) {
            }
        }
        if (rec.t_send >= plan.trace_from_ns) {
            run.trace.add(sp_collector_ingest, rec.t_send, rec.t_recv,
                          request_id(f, run.ops.size()));
        }
        run.ops.push(rec);
    }
}

// ---------------------------------------------------------------------------
// Statistics helpers.
// ---------------------------------------------------------------------------
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    const std::size_t k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return v[k];
}

// Median, over consecutive chunks of `size` samples (the last chunk takes
// the remainder), of each chunk's q-quantile.
double chunked_quantile(const std::vector<double>& v, std::size_t size, double q) {
    const std::size_t chunks = std::max<std::size_t>(1, v.size() / size);
    std::vector<double> per_chunk;
    for (std::size_t c = 0; c < chunks; ++c) {
        const auto lo = v.begin() + static_cast<std::ptrdiff_t>(c * size);
        const auto hi = c + 1 == chunks ? v.end() : lo + static_cast<std::ptrdiff_t>(size);
        per_chunk.push_back(quantile(std::vector<double>(lo, hi), q));
    }
    return quantile(per_chunk, 0.5);
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

struct proc_counters {
    double cpu_s = 0.0;
    double ctx_switches = 0.0;
    double allocs = 0.0;
};

proc_counters read_proc() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return {tv(ru.ru_utime) + tv(ru.ru_stime),
            static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw),
            static_cast<double>(allocations())};
}

double peak_rss_bytes() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0;  // Linux reports KiB
}

void sleep_until_ns(std::int64_t t) {
    std::this_thread::sleep_until(clk::time_point(std::chrono::nanoseconds(t)));
}

double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

// Bins whose verdict reached the sink within [from, to).
std::size_t delivered_between(const std::vector<sink_state>& sinks, std::int64_t from,
                              std::int64_t to) {
    std::size_t n = 0;
    for (const sink_state& s : sinks) {
        for (std::size_t i = 0; i < s.log.size(); ++i) {
            const std::int64_t t = s.log[i].t_ns;
            if (t >= from && t < to) ++n;
        }
    }
    return n;
}

// ---------------------------------------------------------------------------
// Verdict parity: replay each feed's accepted bins in sequence order through
// the standalone reference and compare every delivered verdict.
// ---------------------------------------------------------------------------
struct parity_result {
    std::uint64_t mismatches = 0;  // differing, missing or duplicated verdicts
    std::uint64_t replayed = 0;    // bins replayed
    std::uint64_t refits = 0;      // reference refits over the replay
    std::vector<double> push_us;   // sampled push_bin times
};

parity_result replay_feed(const workload& w, const feed& fd, const feed_run& run,
                          const sink_state& sink) {
    parity_result out;
    std::unique_ptr<stream_detector> ref = make_reference(w, fd);
    std::uint64_t next = 0;  // the stream's next sequence
    for (std::size_t i = 0; i < run.ops.size(); ++i) {
        const request_record& rec = run.ops[i];
        if (rec.kind != op_kind::ingest || !rec.ok) continue;
        if (rec.seq != next) ++out.mismatches;  // a sequence gap or overlap
        for (std::size_t j = 0; j < rec.count; ++j) {
            const std::vector<double>& bin = fd.bins[(rec.cursor + j) % k_pool_bins];
            const std::int64_t t0 = now_ns();
            const detection_result r = ref->push_bin(bin);
            const std::int64_t t1 = now_ns();
            if (out.replayed % 8 == 0) out.push_us.push_back(us(t1 - t0));
            ++out.replayed;
            const std::uint64_t seq = rec.seq + j;
            if (seq >= sink.log.size() || sink.log[seq].t_ns < 0 ||
                sink.log[seq].hash != verdict_hash(r)) {
                ++out.mismatches;
            }
        }
        next = rec.seq + rec.count;
    }
    // Deliveries beyond the last accepted bin, and duplicates.
    if (sink.log.size() > next) out.mismatches += sink.log.size() - next;
    out.mismatches += sink.duplicates;
    if (const auto* d = dynamic_cast<const streaming_diagnoser*>(ref.get())) {
        out.refits = d->refit_count();
    }
    return out;
}

// ---------------------------------------------------------------------------
// Stage pass (traced run only): re-issue the traced window's own requests,
// calling each stage's public function directly, on shadow servers built
// with the same stream configs.
// ---------------------------------------------------------------------------
struct stage_times {
    std::vector<double> encode_req, decode_resp, encode_frame, decode_frame, decode_req,
        ingest_batch, handle_self;
    double wire_bytes_per_req = 0.0;
    double snapshot_ms = 0.0, restore_ms = 0.0, record_bytes = 0.0;
    double crc_mib_per_s = 0.0;
    double refit_ms = 0.0, pca_fit_ms = 0.0;
    std::uint64_t failures = 0;
};

struct shadow {
    std::unique_ptr<stream_server> server;
    std::vector<sink_state> sinks = std::vector<sink_state>(k_feeds);
    std::vector<stream_id> ids;
};

void open_shadow(shadow& s, const workload& w, const std::vector<feed>& feeds, bool auto_drain) {
    s.server = std::make_unique<stream_server>(stream_server_config{k_pool_threads});
    for (std::size_t f = 0; f < k_feeds; ++f) {
        stream_open_config cfg = make_open_config(w, feeds[f], make_sink(&s.sinks[f]));
        cfg.ingest.auto_drain = auto_drain;
        s.ids.push_back(s.server->open_stream(std::move(cfg)));
    }
}

stage_times run_stages(const workload& w, const std::vector<feed>& feeds,
                       const std::vector<feed_run>& runs, std::int64_t from, span_log& trace) {
    stage_times st;
    // live: the served configuration, for ingest_batch with its drain.
    // enq_a / enq_b: the same streams without auto-drain, so handle_request
    // (on enq_a) and decode + ingest_batch (on enq_b) do identical,
    // drain-free work and their difference is handle_request's self time.
    shadow live, enq_a, enq_b;
    open_shadow(live, w, feeds, true);
    open_shadow(enq_a, w, feeds, false);
    open_shadow(enq_b, w, feeds, false);
    if (live.ids != enq_a.ids || live.ids != enq_b.ids) {
        throw std::logic_error("shadow servers assigned different ids");
    }

    const std::size_t per_feed = std::max<std::size_t>(16, 8192 / w.batch);
    net::frame_decoder server_dec, client_dec;
    double wire_bytes = 0.0;
    std::string request_frame;
    for (std::size_t f = 0; f < k_feeds; ++f) {
        std::size_t taken = 0;
        for (std::size_t i = 0; i < runs[f].ops.size() && taken < per_feed; ++i) {
            const request_record& rec = runs[f].ops[i];
            if (rec.kind != op_kind::ingest || !rec.ok || rec.t_send < from) continue;
            ++taken;
            const std::uint64_t req_id = request_id(f, i);
            net::ingest_batch_request req;
            req.stream = live.ids[f];
            for (std::size_t j = 0; j < rec.count; ++j) {
                req.bins.push_back(feeds[f].bins[(rec.cursor + j) % k_pool_bins]);
            }
            const std::int64_t t0 = now_ns();
            std::string payload = net::encode(req);
            const std::int64_t t1 = now_ns();
            request_frame = net::encode_frame(
                static_cast<std::uint8_t>(net::msg_type::req_ingest_batch), std::move(payload));
            const std::int64_t t2 = now_ns();
            net::frame in;
            server_dec.feed(request_frame);
            const bool got = server_dec.next(in) == net::frame_decoder::progress::frame_ready;
            const std::int64_t t3 = now_ns();
            if (!got) throw std::runtime_error("stage pass: request frame did not decode");
            const net::ingest_batch_request decoded = net::decode_ingest_batch_request(in.payload);
            const std::int64_t t4 = now_ns();
            const std::vector<std::span<const double>> spans(decoded.bins.begin(),
                                                             decoded.bins.end());
            // Served requests reach a stream a wire round trip apart, time
            // in which its background refits finish; back to back they
            // would not, and ingest_batch would wait for them instead.
            live.server->drain_all();
            const std::int64_t t5 = now_ns();
            const ingest_result ir = live.server->ingest_batch(live.ids[f], spans);
            const std::int64_t t6 = now_ns();
            const ingest_result ir_enq = enq_b.server->ingest_batch(enq_b.ids[f], spans);
            const std::int64_t t7 = now_ns();
            const net::frame resp = net::handle_request(*enq_a.server, in);
            const std::int64_t t8 = now_ns();
            const std::string resp_bytes = net::encode_frame(resp);
            const std::int64_t t9 = now_ns();
            net::frame back;
            client_dec.feed(resp_bytes);
            const bool got_back =
                client_dec.next(back) == net::frame_decoder::progress::frame_ready;
            const std::int64_t t10 = now_ns();
            enq_a.server->flush_stream(enq_a.ids[f]);
            enq_b.server->flush_stream(enq_b.ids[f]);
            if (!ir.ok() || !ir_enq.ok() || !got_back ||
                back.type != static_cast<std::uint8_t>(net::msg_type::resp_ingest_batch)) {
                ++st.failures;
                continue;
            }
            const std::int64_t t11 = now_ns();
            (void)net::decode_ingest_batch_response(back.payload);
            const std::int64_t t12 = now_ns();

            st.encode_req.push_back(us(t1 - t0));
            st.encode_frame.push_back(us((t2 - t1) + (t9 - t8)));
            st.decode_frame.push_back(us((t3 - t2) + (t10 - t9)));
            st.decode_req.push_back(us(t4 - t3));
            st.ingest_batch.push_back(us(t6 - t5));
            st.handle_self.push_back(us((t8 - t7) - (t4 - t3) - (t7 - t6)));
            st.decode_resp.push_back(us(t12 - t11));
            wire_bytes += static_cast<double>(request_frame.size() + resp_bytes.size());

            const std::uint64_t parent = trace.add(sp_stage_request, t0, t12, req_id);
            trace.add(sp_encode_req, t0, t1, req_id, parent);
            trace.add(sp_encode_frame, t1, t2, req_id, parent);
            trace.add(sp_decode_frame, t2, t3, req_id, parent);
            trace.add(sp_decode_req, t3, t4, req_id, parent);
            trace.add(sp_ingest_batch, t5, t6, req_id, parent);
            trace.add(sp_enqueue, t6, t7, req_id, parent);
            trace.add(sp_handle_request, t7, t8, req_id, parent);
            trace.add(sp_encode_frame, t8, t9, req_id, parent);
            trace.add(sp_decode_frame, t9, t10, req_id, parent);
            trace.add(sp_decode_resp, t11, t12, req_id, parent);
        }
    }
    if (!st.encode_req.empty()) {
        st.wire_bytes_per_req = wire_bytes / static_cast<double>(st.encode_req.size());
    }
    for (shadow* sh : {&live, &enq_a, &enq_b}) {
        sh->server->flush_all();
        sh->server->drain_all();
    }

    // measurement: the snapshot/restore pair a migration runs.
    std::vector<double> snap_ms, restore_ms;
    std::string record;
    double record_bytes = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t f = 0; f < k_feeds; ++f) {
            std::ostringstream out(std::ios::binary);
            const std::int64_t t0 = now_ns();
            live.server->snapshot_stream(live.ids[f], out, ckpt::encoding::interchange);
            const std::int64_t t1 = now_ns();
            record = std::move(out).str();
            std::istringstream in(record, std::ios::binary);
            const std::int64_t t2 = now_ns();
            const stream_id restored = enq_b.server->restore_stream(in);
            const std::int64_t t3 = now_ns();
            enq_b.server->close_stream(restored);
            snap_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
            restore_ms.push_back(static_cast<double>(t3 - t2) * 1e-6);
            record_bytes += static_cast<double>(record.size());
            trace.add(sp_snapshot, t0, t1, f);
            trace.add(sp_restore, t2, t3, f);
        }
    }
    st.snapshot_ms = quantile(snap_ms, 0.5);
    st.restore_ms = quantile(restore_ms, 0.5);
    st.record_bytes = record_bytes / static_cast<double>(snap_ms.size());

    // wire: CRC32 over the frame kind that carries most of this workload's
    // bytes: its ingest requests, or the checkpoint records of its moves.
    const bool records_dominate = 2.0 * static_cast<double>(record.size()) >
                                  st.wire_bytes_per_req * static_cast<double>(w.migrate_every);
    const std::string& crc_input = records_dominate ? record : request_frame;
    std::vector<double> crc_rates;
    for (int rep = 0; rep < 5; ++rep) {
        std::size_t bytes = 0;
        std::uint32_t acc = 0;
        const std::int64_t t0 = now_ns();
        std::int64_t t1 = t0;
        while (t1 - t0 < 20'000'000) {
            acc ^= net::crc32(crc_input);
            bytes += crc_input.size();
            t1 = now_ns();
        }
        g_crc_sink = acc;
        trace.add(sp_crc, t0, t1, static_cast<std::uint64_t>(rep));
        crc_rates.push_back(static_cast<double>(bytes) / (1 << 20) /
                            (static_cast<double>(t1 - t0) * 1e-9));
    }
    st.crc_mib_per_s = quantile(crc_rates, 0.5);

    // subspace refit and linalg fit kernels, on windows of the feeds' bins.
    std::vector<double> refit_ms, pca_ms;
    for (std::size_t f = 0; f < k_feeds; ++f) {
        for (std::size_t rep = 0; rep < 3; ++rep) {
            matrix win(w.window, feeds[f].bins.front().size());
            for (std::size_t t = 0; t < w.window; ++t) {
                win.set_row(t, feeds[f].bins[(rep * k_refit_interval + t) % k_pool_bins]);
            }
            const std::int64_t t0 = now_ns();
            const volume_anomaly_diagnoser fit(win, feeds[f].a, k_confidence, separation_config{});
            const std::int64_t t1 = now_ns();
            const matrix centered = center_columns(win).centered;
            const std::int64_t t2 = now_ns();
            const sym_eigen_result eig = sym_eigen(parallel_centered_covariance(centered, nullptr));
            const std::int64_t t3 = now_ns();
            if (eig.eigenvalues.empty() || fit.model().dimension() == 0) ++st.failures;
            refit_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
            pca_ms.push_back(static_cast<double>(t3 - t2) * 1e-6);
            trace.add(sp_refit, t0, t1, f);
            trace.add(sp_pca_fit, t2, t3, f);
        }
    }
    st.refit_ms = quantile(refit_ms, 0.5);
    st.pca_fit_ms = quantile(pca_ms, 0.5);
    return st;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------
struct metric {
    std::string name;
    double value;
    const char* unit;
};

std::string json_metrics(const std::vector<metric>& ms) {
    std::string s = "{";
    char buf[256];
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value, ms[i].unit);
        s += buf;
    }
    return s + "}";
}

// Spans written per traced run, so repeated runs keep the build tree small.
constexpr std::size_t k_max_written_spans = 200'000;

void write_spans(const std::string& path, const std::vector<const span_log*>& logs) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "e2ebench: cannot write spans to %s\n", path.c_str());
        return;
    }
    out << "id,parent,name,start_ns,end_ns,request\n";
    // An even share per log, so the stage pass is never crowded out.
    const std::size_t share = k_max_written_spans / std::max<std::size_t>(logs.size(), 1);
    for (const span_log* log : logs) {
        for (std::size_t i = 0; i < std::min(log->spans.size(), share); ++i) {
            const span_record& s = log->spans[i];
            out << s.id << ',' << s.parent << ',' << k_span_names[s.name] << ',' << s.start
                << ',' << s.end << ',' << s.request << '\n';
        }
    }
}

int usage() {
    std::fprintf(stderr,
                 "usage: netdiag_e2ebench --workload collect_b1|backfill_b256|migrate_b16 "
                 "--seed N --seconds S --trace 0|1 [--fault perturb_verdict|wrong_width|"
                 "withhold_sink] [--commit ID] [--trace-dir DIR]\n");
    return 2;
}

int run(int argc, char** argv) {
    const workload* w = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    fault planted = fault::none;
    std::string commit = "unknown";
    std::string trace_dir = ".";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage();
        const std::string val = argv[++i];
        if (arg == "--workload") {
            for (const workload& c : k_workloads) {
                if (val == c.name) w = &c;
            }
            if (w == nullptr) return usage();
        } else if (arg == "--seed") {
            seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(val.c_str(), nullptr);
        } else if (arg == "--trace") {
            if (val != "0" && val != "1") return usage();
            traced = val == "1";
        } else if (arg == "--fault") {
            if (val == "perturb_verdict") planted = fault::perturb_verdict;
            else if (val == "wrong_width") planted = fault::wrong_width;
            else if (val == "withhold_sink") planted = fault::withhold_sink;
            else return usage();
        } else if (arg == "--commit") {
            commit = val;
        } else if (arg == "--trace-dir") {
            trace_dir = val;
        } else {
            return usage();
        }
    }
    if (w == nullptr || !(seconds > 0.0)) return usage();

    // Provenance; numbers from anything but an optimized build are refused.
    bool release = std::strcmp(E2E_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
    release = false;
#endif
    std::printf("# provenance {\"nproc\": %ld, \"hardware_concurrency\": %u, \"simd\": \"%s\", "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\"}\n",
                sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
                simd::isa_name(), E2E_BUILD_TYPE, E2E_COMPILER, commit.c_str());
    if (!release) {
        std::fprintf(stderr, "e2ebench: refusing to report numbers from a %s build of "
                             "libnetdiag; build Release\n", E2E_BUILD_TYPE);
        return 2;
    }

    // Inputs (not timed as set-up).
    std::vector<feed> feeds;
    for (std::size_t f = 0; f < k_feeds; ++f) feeds.push_back(make_feed(*w, seed, f));

    std::vector<sink_state> sinks(k_feeds);
    if (planted == fault::perturb_verdict) sinks[0].perturb_at = k_fault_sequence;
    if (planted == fault::withhold_sink) sinks[1].withhold_at = k_fault_sequence;

    // Set-up, several times; the last rig serves the run.
    std::vector<double> setup_times;
    std::unique_ptr<rig> rg;
    for (std::size_t rep = 0; rep < k_setup_reps; ++rep) {
        rg.reset();
        double s = 0.0;
        rg = build_rig(*w, feeds, sinks, s);
        setup_times.push_back(s);
    }

    std::vector<feed_run> runs(k_feeds);
    run_plan plan;
    const std::int64_t start = now_ns();
    const std::int64_t measure_from = start + static_cast<std::int64_t>(k_warmup_s * 1e9);
    plan.end_ns = measure_from + static_cast<std::int64_t>(seconds * 1e9);
    if (traced) plan.trace_from_ns = measure_from + static_cast<std::int64_t>(seconds * 0.5e9);
    const std::int64_t trace_from = plan.trace_from_ns;

    std::vector<std::thread> threads;
    for (std::size_t f = 0; f < k_feeds; ++f) {
        threads.emplace_back(collector_loop, std::cref(*w), std::cref(feeds[f]), f,
                             std::ref(*rg), std::ref(sinks), std::ref(runs[f]), std::cref(plan),
                             planted);
    }
    sleep_until_ns(measure_from);
    // Untraced runs sample the process counters at every sub-window edge.
    std::vector<proc_counters> edges{read_proc()};
    const std::int64_t sub_len = (plan.end_ns - measure_from) / k_subwindows;
    if (!traced) {
        for (std::size_t k = 1; k < k_subwindows; ++k) {
            sleep_until_ns(measure_from + static_cast<std::int64_t>(k) * sub_len);
            edges.push_back(read_proc());
        }
    }
    proc_counters pt0;
    std::atomic<bool> polling{false};
    // Poller-owned until it is joined.
    std::uint64_t pending_max = 0;
    std::vector<double> queue_p50_samples, queue_p99_samples;
    std::thread poller;
    if (traced) {
        sleep_until_ns(trace_from);
        pt0 = read_proc();
        polling = true;
        // serve: inbox depth, polled through the public counters.
        poller = std::thread([&] {
            while (polling.load()) {
                for (std::size_t f = 0; f < k_feeds; ++f) {
                    try {
                        const ingest_stats is = rg->home_stats(f);
                        pending_max = std::max(pending_max, is.pending);
                        if (is.latency_count > 0) {
                            queue_p50_samples.push_back(is.latency_p50_ms * 1e3);
                            queue_p99_samples.push_back(is.latency_p99_ms * 1e3);
                        }
                    } catch (const std::exception&) {
                        // The stream moved between reading its home and asking.
                    }
                }
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
        });
    }
    sleep_until_ns(plan.end_ns);
    const proc_counters p1 = read_proc();
    edges.push_back(p1);
    for (std::thread& t : threads) t.join();
    if (poller.joinable()) {
        polling = false;
        poller.join();
    }
    const double peak_rss_mib =
        (peak_rss_bytes() - static_cast<double>(g_bookkeeping_bytes.load())) / (1 << 20);

    // serve counters at the end of the timed phase.
    std::uint64_t rejected = 0, dropped = 0;
    for (std::size_t f = 0; f < k_feeds; ++f) {
        const ingest_stats is = rg->home_stats(f);
        rejected += is.rejected;
        dropped += is.dropped;
    }

    // Settle every stream.
    for (std::size_t f = 0; f < k_feeds; ++f) {
        rg->server[rg->home_server(f)]->flush_stream(rg->home_id(f));
    }
    for (auto& s : rg->server) s->drain_all();

    // Conservation and delivery, per stream on its final home.
    std::uint64_t conservation_violations = 0;
    for (std::size_t f = 0; f < k_feeds; ++f) {
        const ingest_stats is = rg->home_stats(f);
        if (is.accepted != is.applied + is.dropped + is.pending || is.pending != 0) {
            ++conservation_violations;
        }
        std::uint64_t delivered = 0;
        for (std::size_t i = 0; i < sinks[f].log.size(); ++i) {
            delivered += sinks[f].log[i].t_ns >= 0;
        }
        if (delivered != is.applied) ++conservation_violations;
    }

    // Verdict parity, one replay thread per feed.
    std::vector<parity_result> parity(k_feeds);
    {
        std::vector<std::thread> replays;
        for (std::size_t f = 0; f < k_feeds; ++f) {
            replays.emplace_back(
                [&, f] { parity[f] = replay_feed(*w, feeds[f], runs[f], sinks[f]); });
        }
        for (std::thread& t : replays) t.join();
    }
    std::uint64_t parity_mismatches = 0, replayed = 0, refits = 0;
    std::vector<double> push_us;
    for (const parity_result& p : parity) {
        parity_mismatches += p.mismatches;
        replayed += p.replayed;
        refits += p.refits;
        push_us.insert(push_us.end(), p.push_us.begin(), p.push_us.end());
    }

    // Operations: every ingest and move attempted, warm-up included.
    std::uint64_t attempted = 0, failed = 0;
    for (const feed_run& r : runs) {
        for (std::size_t i = 0; i < r.ops.size(); ++i) {
            ++attempted;
            failed += !r.ops[i].ok;
        }
    }

    // Request metrics over [from, to) of the send times, in chunks of
    // k_chunk_requests consecutive requests (all feeds, send order): each
    // statistic is the median over the chunks of the chunk's value. A
    // chunk is short (17 ms to 1.2 s here), so a stall from outside the
    // process -- the host descheduling a vCPU -- spoils a few chunks, not
    // the result.
    struct window_stats {
        double bins_per_s = 0.0, rtt_p50 = 0.0, rtt_p95 = 0.0, rtt_p99 = 0.0, verdict_p50 = 0.0,
               verdict_p95 = 0.0, verdict_p99 = 0.0, rtt_mean = 0.0;
        std::size_t bins = 0, ingests = 0, chunks = 0;
        std::vector<double> migrate_ms;  // in send order
    };
    const auto window = [&](std::int64_t from, std::int64_t to) {
        struct sent {
            std::int64_t t_send, t_recv;
            std::size_t feed, op;
        };
        std::vector<sent> reqs;
        std::vector<std::pair<std::int64_t, double>> moves;
        for (std::size_t f = 0; f < k_feeds; ++f) {
            for (std::size_t i = 0; i < runs[f].ops.size(); ++i) {
                const request_record& rec = runs[f].ops[i];
                if (rec.t_send < from || rec.t_send >= to || !rec.ok) continue;
                if (rec.kind == op_kind::migrate) {
                    moves.emplace_back(rec.t_send,
                                       static_cast<double>(rec.t_recv - rec.t_send) * 1e-6);
                } else {
                    reqs.push_back(sent{rec.t_send, rec.t_recv, f, i});
                }
            }
        }
        std::sort(reqs.begin(), reqs.end(),
                  [](const sent& x, const sent& y) { return x.t_send < y.t_send; });
        std::sort(moves.begin(), moves.end());
        window_stats ws;
        for (const auto& m : moves) ws.migrate_ms.push_back(m.second);
        ws.ingests = reqs.size();
        ws.chunks = std::max<std::size_t>(1, reqs.size() / k_chunk_requests);
        std::vector<double> rate, rtt50, rtt95, rtt99, ver50, ver95, ver99, rtt, verdict;
        double rtt_sum = 0.0;
        for (std::size_t c = 0; c < ws.chunks && !reqs.empty(); ++c) {
            // The last chunk takes the remainder.
            const std::size_t lo = c * k_chunk_requests;
            const std::size_t hi = c + 1 == ws.chunks ? reqs.size() : lo + k_chunk_requests;
            rtt.clear();
            verdict.clear();
            for (std::size_t k = lo; k < hi; ++k) {
                const request_record& rec = runs[reqs[k].feed].ops[reqs[k].op];
                rtt.push_back(us(rec.t_recv - rec.t_send));
                rtt_sum += rtt.back();
                const sink_state& sink = sinks[reqs[k].feed];
                for (std::size_t j = 0; j < rec.count; ++j) {
                    const std::uint64_t seq = rec.seq + j;
                    if (seq < sink.log.size() && sink.log[seq].t_ns >= 0) {
                        verdict.push_back(us(sink.log[seq].t_ns - rec.t_send));
                    }
                }
            }
            // Span: from this chunk's first send to the next chunk's first
            // send (the last chunk ends at its last reply).
            const std::int64_t end =
                hi < reqs.size() ? reqs[hi].t_send
                                 : std::max_element(reqs.begin() + static_cast<std::ptrdiff_t>(lo),
                                                    reqs.end(),
                                                    [](const sent& x, const sent& y) {
                                                        return x.t_recv < y.t_recv;
                                                    })->t_recv;
            rate.push_back(static_cast<double>(verdict.size()) /
                           (static_cast<double>(end - reqs[lo].t_send) * 1e-9));
            ws.bins += verdict.size();
            rtt50.push_back(quantile(rtt, 0.50));
            rtt95.push_back(quantile(rtt, 0.95));
            rtt99.push_back(quantile(rtt, 0.99));
            ver50.push_back(quantile(verdict, 0.50));
            ver95.push_back(quantile(verdict, 0.95));
            ver99.push_back(quantile(verdict, 0.99));
        }
        ws.bins_per_s = quantile(rate, 0.5);
        ws.rtt_p50 = quantile(rtt50, 0.5);
        ws.rtt_p95 = quantile(rtt95, 0.5);
        ws.rtt_p99 = quantile(rtt99, 0.5);
        ws.verdict_p50 = quantile(ver50, 0.5);
        ws.verdict_p95 = quantile(ver95, 0.5);
        ws.verdict_p99 = quantile(ver99, 0.5);
        ws.rtt_mean = reqs.empty() ? 0.0 : rtt_sum / static_cast<double>(reqs.size());
        return ws;
    };

    const bool correct = parity_mismatches == 0 && conservation_violations == 0;
    const double error_rate =
        static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(attempted, 1));
    std::vector<metric> out;
    char summary[1024];

    if (!traced) {
        const window_stats ws = window(measure_from, plan.end_ns);
        const std::vector<double>& moves = ws.migrate_ms;
        // CPU per bin: median over equal time sub-windows.
        std::vector<double> cpu;
        for (std::size_t k = 0; k < k_subwindows; ++k) {
            const std::int64_t from = measure_from + static_cast<std::int64_t>(k) * sub_len;
            const std::size_t bins = delivered_between(sinks, from, from + sub_len);
            cpu.push_back((edges[k + 1].cpu_s - edges[k].cpu_s) * 1e6 /
                          static_cast<double>(std::max<std::size_t>(bins, 1)));
        }
        out = {
            {"bins_per_s", ws.bins_per_s, "1/s"},
            {"rtt_p50_us", ws.rtt_p50, "us"},
            {"rtt_p95_us", ws.rtt_p95, "us"},
            {"verdict_p50_us", ws.verdict_p50, "us"},
            {"verdict_p95_us", ws.verdict_p95, "us"},
            {"migrate_p50_ms", chunked_quantile(moves, k_chunk_moves, 0.50), "ms"},
            {"migrate_p90_ms", chunked_quantile(moves, k_chunk_moves, 0.90), "ms"},
            {"cpu_us_per_bin", quantile(cpu, 0.5), "us"},
            {"peak_rss_mib", peak_rss_mib, "MiB"},
            {"setup_s", quantile(setup_times, 0.5), "s"},
        };
        std::snprintf(summary, sizeof summary,
                      "# samples {\"workload\": \"%s\", \"seed\": %llu, \"bins\": %zu, "
                      "\"requests\": %zu, \"request_chunks\": %zu, \"moves\": %zu, "
                      "\"move_chunks\": %zu, \"cpu_subwindows\": %zu, \"setup\": %zu, "
                      "\"rtt_p99_us\": %.6g, \"verdict_p99_us\": %.6g, "
                      "\"error_rate\": %.6g, \"parity_mismatches\": %llu, "
                      "\"conservation_violations\": %llu, \"replayed_bins\": %llu}\n",
                      w->name, static_cast<unsigned long long>(seed), ws.bins, ws.ingests,
                      ws.chunks, moves.size(),
                      std::max<std::size_t>(1, moves.size() / k_chunk_moves), k_subwindows,
                      setup_times.size(), ws.rtt_p99, ws.verdict_p99, error_rate,
                      static_cast<unsigned long long>(parity_mismatches),
                      static_cast<unsigned long long>(conservation_violations),
                      static_cast<unsigned long long>(replayed));
    } else {
        const window_stats untraced = window(measure_from, trace_from);
        const window_stats ws = window(trace_from, plan.end_ns);
        span_log stage_trace;
        const stage_times st = run_stages(*w, feeds, runs, trace_from, stage_trace);
        const double bins = static_cast<double>(std::max<std::size_t>(ws.bins, 1));
        const double untraced_bins = static_cast<double>(
            std::max<std::size_t>(delivered_between(sinks, measure_from, trace_from), 1));
        const double rtt_mean = ws.rtt_mean;
        // handle_request as served: its self time plus the decode and the
        // draining ingest_batch it calls.
        const double handle_incl =
            mean(st.handle_self) + mean(st.decode_req) + mean(st.ingest_batch);
        const double stages = mean(st.encode_req) + mean(st.decode_resp) + mean(st.encode_frame) +
                              mean(st.decode_frame) + handle_incl;
        const double moves = static_cast<double>(ws.migrate_ms.size());
        const double requests = static_cast<double>(ws.ingests) + 2.0 * moves;
        const double wire_bytes = st.wire_bytes_per_req * static_cast<double>(ws.ingests) +
                                  2.0 * st.record_bytes * moves;
        out = {
            {"net.transport_us_per_req", rtt_mean - stages, "us"},
            {"net.requests_per_bin", requests / bins, "count"},
            {"net.wire_bytes_per_bin", wire_bytes / bins, "B"},
            // proc counters come from the untraced half: the poller and
            // the span logs would otherwise add to them.
            {"proc.ctx_switches_per_bin",
             (pt0.ctx_switches - edges.front().ctx_switches) / untraced_bins, "count"},
            {"proc.allocs_per_bin", (pt0.allocs - edges.front().allocs) / untraced_bins, "count"},
            {"protocol.encode_req_us", mean(st.encode_req), "us"},
            {"protocol.decode_req_us", mean(st.decode_req), "us"},
            {"protocol.handle_request_us", mean(st.handle_self), "us"},
            {"wire.encode_frame_us", mean(st.encode_frame), "us"},
            {"wire.decode_frame_us", mean(st.decode_frame), "us"},
            {"wire.crc_mib_per_s", st.crc_mib_per_s, "MiB/s"},
            {"measurement.snapshot_ms", st.snapshot_ms, "ms"},
            {"measurement.restore_ms", st.restore_ms, "ms"},
            {"measurement.record_kib", st.record_bytes / 1024.0, "KiB"},
            {"subspace.refit_ms", st.refit_ms, "ms"},
            {"subspace.refits_per_kbin",
             1000.0 * static_cast<double>(refits) /
                 static_cast<double>(std::max<std::uint64_t>(replayed, 1)),
             "count"},
            {"linalg.pca_fit_ms", st.pca_fit_ms, "ms"},
            {"subspace.push_us", quantile(push_us, 0.5), "us"},
            {"serve.ingest_batch_us", mean(st.ingest_batch), "us"},
            {"serve.queue_p50_us", mean(queue_p50_samples), "us"},
            {"serve.queue_p99_us", mean(queue_p99_samples), "us"},
            {"serve.pending_max", static_cast<double>(pending_max), "count"},
            {"serve.rejected", static_cast<double>(rejected), "count"},
            {"serve.dropped", static_cast<double>(dropped), "count"},
            {"bench.parity_mismatches", static_cast<double>(parity_mismatches), "count"},
            {"bench.tracing_overhead_bins_per_s", ws.bins_per_s - untraced.bins_per_s, "1/s"},
            {"error_rate", error_rate, "ratio"},
            // The p99 tails, over the untraced half.
            {"rtt_p99_us", untraced.rtt_p99, "us"},
            {"verdict_p99_us", untraced.verdict_p99, "us"},
        };
        std::snprintf(summary, sizeof summary,
                      "# samples {\"workload\": \"%s\", \"seed\": %llu, \"traced_bins\": %zu, "
                      "\"untraced_bins_per_s\": %.6g, \"traced_bins_per_s\": %.6g, "
                      "\"stage_requests\": %zu, \"stage_failures\": %llu, "
                      "\"conservation_violations\": %llu, \"replayed_bins\": %llu}\n",
                      w->name, static_cast<unsigned long long>(seed), ws.bins,
                      untraced.bins_per_s, ws.bins_per_s, st.encode_req.size(),
                      static_cast<unsigned long long>(st.failures),
                      static_cast<unsigned long long>(conservation_violations),
                      static_cast<unsigned long long>(replayed));
        std::vector<const span_log*> logs;
        for (const feed_run& r : runs) logs.push_back(&r.trace);
        logs.push_back(&stage_trace);
        write_spans(trace_dir + "/spans-" + w->name + "-seed" + std::to_string(seed) + ".csv",
                    logs);
    }
    rg.reset();  // close connections, stop frontends, join pools

    std::fputs(summary, stdout);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), json_metrics(out).c_str());
    std::fflush(stdout);
    return correct ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }
}
