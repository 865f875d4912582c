#include "serve/stream_server.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "engine/backoff.h"
#include "engine/clock.h"
#include "engine/tuning.h"
#include "measurement/stream_checkpoint.h"
#include "stats/histogram.h"

namespace netdiag {

namespace {

constexpr const char* k_manifest_tag = "stream_server_manifest";
// Format-v3 per-stream container: ingest inbox config + counters +
// residue wrapped around the nested detector record. See
// docs/CHECKPOINT_FORMAT.md.
constexpr const char* k_server_stream_tag = "server_stream";

std::string checkpoint_filename(stream_id id) {
    return "stream_" + std::to_string(id) + ".ckpt";
}

}  // namespace

// One served stream: the detector plus its concurrent ingest edge. The
// per-entry lock decouples ingest from the server-wide map lock (mu_):
// ingest holds mu_ only for the id lookup, then works under this lock,
// so a drain that waits at a refit boundary never stalls opens/closes or
// other streams' ingests. Lifecycle: close_stream/snapshot_all take the
// entry lock exclusively to quiesce the ingest edge; ingest/flush take it
// shared. The draining flag is the single-drainer role: whoever wins the
// exchange applies pending bins in sequence order, everyone else returns
// after enqueueing.
struct stream_server::stream_entry {
    // What travels through the inbox: the measurement plus the monotone
    // tick of its enqueue staging, so the drainer can charge the full
    // ingest-to-applied interval (including any block-policy wait and
    // queueing delay) to the latency histogram. Ticks are runtime-only:
    // checkpoints serialize the payload and restamp at restore.
    struct ingest_item {
        vec y;
        std::uint64_t enqueue_tick = 0;
    };

    std::unique_ptr<stream_detector> detector;
    ingest_options opts;  // capacity holds the effective (rounded) ring size
    std::unique_ptr<mpsc_inbox<ingest_item>> inbox;
    mutable sync::shared_mutex mu;
    // The single-drainer role as a capability the analysis can track:
    // whoever owns the draining flag below holds drain_cap, and only
    // holders may run apply_pending or touch the sink. The flag (not the
    // capability, which is a zero-size no-op) is what changes hands at
    // runtime.
    sync::role drain_cap;
    // Applied-bin callback, invoked only by the drainer; hoisted out of
    // opts so the analysis can pin it to the role capability.
    ingest_sink sink NETDIAG_GUARDED_BY(drain_cap);
    // The single-drainer role flag. All operations on this flag (and the
    // inbox's position words) are seq_cst: the lost-drain re-checks and
    // flush's "empty and nobody draining" exit combine the two variables,
    // which is only sound in one total order -- with weaker orders a
    // thread could observe a drainer's pop yet a stale role flag and
    // return while the last bin is still mid-apply.
    std::atomic<bool> draining{false};
    std::atomic<bool> closing{false};
    // Threads parked in wait_for_drain_role (close/snapshot/drain_all/
    // set_ingest_sink). Opportunistic auto-drains yield to them: under
    // sustained ingest the role is otherwise held almost continuously by
    // alternating producers, and a maintenance op could starve for
    // minutes waiting for a free window.
    std::atomic<std::size_t> role_waiters{0};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> applied{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> rejected{0};
    // Ingest-to-applied latency accounting, written by the drainer per
    // applied bin, read by ingest_statistics. A dedicated mutex (never
    // held across detector or inbox calls) rather than the drain role:
    // readers are not drainers. Histogram domain is log2(latency_ns)
    // with quarter-log2 buckets -- fixed memory, ~19% worst-case
    // relative slack on the reported percentile, exact max kept aside.
    sync::mutex latency_mu;
    histogram latency_hist NETDIAG_GUARDED_BY(latency_mu);
    std::uint64_t latency_count NETDIAG_GUARDED_BY(latency_mu) = 0;
    std::uint64_t latency_max_ns NETDIAG_GUARDED_BY(latency_mu) = 0;

    void record_latency(std::uint64_t enqueue_tick, std::uint64_t now)
        NETDIAG_EXCLUDES(latency_mu) {
        const std::uint64_t ns = now > enqueue_tick ? now - enqueue_tick : 0;
        sync::mutex_lock lock(latency_mu);
        latency_hist.record(std::log2(static_cast<double>(std::max<std::uint64_t>(ns, 1))));
        ++latency_count;
        latency_max_ns = std::max(latency_max_ns, ns);
    }

    // RAII release of an already-acquired drain role (close_stream is the
    // one holder that never releases: it adopts the role for teardown).
    // The adopt shape: the constructor REQUIRES the capability instead of
    // acquiring it, the destructor releases it -- acquisition happened in
    // try_claim_drain_role / wait_for_drain_role.
    class NETDIAG_SCOPED_CAPABILITY drain_role {
    public:
        explicit drain_role(stream_entry& e) NETDIAG_REQUIRES(e.drain_cap) : e_(e) {}
        ~drain_role() NETDIAG_RELEASE() {
            e_.drain_cap.release();
            e_.draining.store(false, std::memory_order_seq_cst);
        }
        drain_role(const drain_role&) = delete;
        drain_role& operator=(const drain_role&) = delete;

    private:
        stream_entry& e_;
    };

    // One attempt at the role: wins iff nobody held the draining flag.
    static bool try_claim_drain_role(stream_entry& e) NETDIAG_TRY_ACQUIRE(true, e.drain_cap) {
        if (e.draining.exchange(true, std::memory_order_seq_cst)) return false;
        e.drain_cap.acquire();  // no-op: the exchange above won the role
        return true;
    }

    static bool wait_for_drain_role(stream_entry& e, bool bail_on_closing)
        NETDIAG_TRY_ACQUIRE(true, e.drain_cap);
    static void acquire_drain_role(stream_entry& e) NETDIAG_ACQUIRE(e.drain_cap);
    static void apply_pending(stream_entry& e, bool yield_to_waiters)
        NETDIAG_REQUIRES(e.drain_cap);
    static void drain_entry(stream_entry& e) NETDIAG_EXCLUDES(e.drain_cap);
};

std::shared_ptr<stream_server::stream_entry> stream_server::make_entry(
    std::unique_ptr<stream_detector> detector, ingest_options&& opts,
    std::uint64_t start_sequence) {
    auto entry = std::make_shared<stream_server::stream_entry>();
    entry->detector = std::move(detector);
    entry->opts = std::move(opts);
    // The entry is freshly built and unpublished: no drainer can exist
    // yet, so this thread holds the drain role by construction.
    entry->drain_cap.assert_held();
    entry->sink = std::move(entry->opts.sink);
    const std::size_t capacity = entry->opts.capacity != 0
                                     ? entry->opts.capacity
                                     : global_tuning().ingest_inbox_capacity;
    entry->inbox = std::make_unique<mpsc_inbox<stream_entry::ingest_item>>(
        capacity, entry->opts.policy, start_sequence);
    entry->opts.capacity = entry->inbox->capacity();
    // log2(ns) domain, quarter-log2 buckets: covers 1ns..2^40ns (~18min)
    // with 160 fixed bins. The entry is unpublished; the lock is for the
    // static analysis, not for contention.
    {
        sync::mutex_lock lock(entry->latency_mu);
        entry->latency_hist = histogram{0.0, 40.0, std::vector<std::size_t>(160, 0)};
    }
    return entry;
}

stream_server::stream_server(stream_server_config cfg) {
    if (cfg.threads > 0) pool_ = std::make_unique<thread_pool>(cfg.threads);
}

stream_server::~stream_server() {
    // Detectors join their own background work on destruction; destroy
    // them before the pool they run on. Pending inbox bins are dropped
    // (documented): snapshot_all or close_stream preserves them.
    sync::exclusive_lock lock(mu_);
    streams_.clear();
}

std::unique_ptr<stream_detector> stream_server::build_detector(stream_open_config&& cfg) {
    switch (cfg.kind) {
        case stream_kind::diagnoser: {
            // The server's pool replaces whatever the caller wired in: all
            // maintenance shares one engine.
            cfg.streaming.pool = pool_.get();
            return std::make_unique<streaming_diagnoser>(cfg.bootstrap_y, cfg.a,
                                                         std::move(cfg.streaming));
        }
        case stream_kind::tracking:
            return std::make_unique<tracking_detector>(cfg.bootstrap_y, cfg.max_rank,
                                                       cfg.confidence, cfg.separation,
                                                       pool_.get());
    }
    throw std::invalid_argument("stream_server: unknown stream kind");
}

stream_id stream_server::open_stream(stream_open_config cfg) {
    // Build outside the lock: bootstrap fits can be expensive and touch
    // only the new detector (plus the pool, which is thread-safe).
    ingest_options ingest = std::move(cfg.ingest);
    std::unique_ptr<stream_detector> detector = build_detector(std::move(cfg));
    return register_stream(std::move(detector), std::move(ingest));
}

stream_id stream_server::adopt_stream(std::unique_ptr<stream_detector> detector,
                                      ingest_options ingest) {
    if (detector == nullptr) {
        throw std::invalid_argument("stream_server: cannot adopt a null detector");
    }
    return register_stream(std::move(detector), std::move(ingest));
}

stream_id stream_server::register_stream(std::unique_ptr<stream_detector> detector,
                                         ingest_options&& ingest) {
    auto entry = make_entry(std::move(detector), std::move(ingest), /*start_sequence=*/0);
    sync::exclusive_lock lock(mu_);
    const stream_id id = next_id_++;
    streams_.emplace(id, std::move(entry));
    return id;
}

std::shared_ptr<stream_server::stream_entry> stream_server::find_entry(stream_id id) const {
    sync::shared_lock lock(mu_);
    const auto it = streams_.find(id);
    return it == streams_.end() ? nullptr : it->second;
}

std::shared_ptr<stream_server::stream_entry> stream_server::entry_or_throw(
    stream_id id) const {
    std::shared_ptr<stream_entry> entry = find_entry(id);
    if (entry == nullptr) {
        throw std::invalid_argument("stream_server: unknown stream id " + std::to_string(id));
    }
    return entry;
}

void stream_server::close_stream(stream_id id) {
    // Serialize with the other maintenance ops; unpublish under the map
    // lock, everything else outside it: joining a multi-second refit (or
    // draining a deep inbox) while holding mu_ exclusively would stall
    // every other stream -- and deadlock against a drainer whose sink
    // reads the server (see maint_mu_).
    sync::mutex_lock maintenance(maint_mu_);
    std::shared_ptr<stream_entry> victim;
    {
        sync::exclusive_lock lock(mu_);
        const auto it = streams_.find(id);
        if (it == streams_.end()) {
            throw std::invalid_argument("stream_server: unknown stream id " +
                                        std::to_string(id));
        }
        victim = std::move(it->second);
        streams_.erase(it);
    }
    // Stop the concurrent edge: new ingests bounce off the map lookup,
    // producers blocked on a full inbox wake and return stream_closed,
    // in-flight ingests either finish enqueueing (their bins are drained
    // below) or observe the closing flag.
    victim->closing.store(true, std::memory_order_release);
    victim->inbox->close();
    // Take the drain role -- waiting out an active drainer -- and keep it
    // for good: after this point no late auto-drain can touch the
    // detector. Then wait for in-flight enqueues (shared holders of the
    // entry lock) and apply every pending bin in sequence order: a
    // non-empty inbox is drained before the stream disappears.
    stream_entry::acquire_drain_role(*victim);
    {
        sync::exclusive_lock entry_lock(victim->mu);
        stream_entry::apply_pending(*victim, /*yield_to_waiters=*/false);
    }
    // Join the stream's background maintenance before teardown so a refit
    // failure surfaces here instead of being swallowed by the destructor.
    victim->detector->drain();
    // The role is adopted permanently: the draining flag stays set so no
    // late auto-drain can ever touch the dying detector. Balance the
    // acquire for the analysis only -- this compiles to nothing.
    victim->drain_cap.release();
}

detection_result stream_server::push(stream_id id, std::span<const double> y) {
    sync::shared_lock lock(mu_);
    const auto it = streams_.find(id);
    if (it == streams_.end()) {
        throw std::invalid_argument("stream_server: unknown stream id " + std::to_string(id));
    }
    return it->second->detector->push_bin(y);
}

// Blocks until the calling thread holds the stream's drain role.
// Returns false without acquiring when bail_on_closing is set and
// close_stream owns the stream (close takes the role and never releases
// it, so waiting would hang forever).
bool stream_server::stream_entry::wait_for_drain_role(stream_entry& e, bool bail_on_closing) {
    e.role_waiters.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t spin = 0;; ++spin) {
        if (!e.draining.exchange(true, std::memory_order_seq_cst)) {
            e.role_waiters.fetch_sub(1, std::memory_order_relaxed);
            e.drain_cap.acquire();  // no-op: the exchange won the role
            return true;
        }
        if (bail_on_closing && e.closing.load(std::memory_order_acquire)) {
            e.role_waiters.fetch_sub(1, std::memory_order_relaxed);
            return false;
        }
        spin_then_sleep_backoff(spin);
    }
}

// wait_for_drain_role in the shape the analysis accepts for an
// unconditional acquire (with bail_on_closing off it can only return
// true, so the loop body never runs twice).
void stream_server::stream_entry::acquire_drain_role(stream_entry& e) {
    while (!wait_for_drain_role(e, /*bail_on_closing=*/false)) {
    }
}

// Pops and applies every pending bin in sequence order. Caller must hold
// the drain role (the draining flag). With yield_to_waiters (the
// opportunistic auto-drain path) the loop returns early when a
// maintenance op is parked in wait_for_drain_role, so it can take the
// role promptly; the remaining bins are applied by a later ingest or
// flush_stream. Maintenance's own applies (close_stream) pass false and
// always run to empty.
void stream_server::stream_entry::apply_pending(stream_entry& e, bool yield_to_waiters) {
    ingest_item bin;
    std::uint64_t seq = 0;
    std::size_t stall = 0;
    for (;;) {
        if (yield_to_waiters && e.role_waiters.load(std::memory_order_relaxed) > 0) return;
        const std::size_t pending = e.inbox->approx_size();
        if (pending == 0) return;
        const std::size_t burst =
            std::min(pending, std::max<std::size_t>(global_tuning().ingest_drain_burst, 1));
        std::size_t popped = 0;
        for (std::size_t i = 0; i < burst; ++i) {
            if (!e.inbox->try_pop(bin, seq)) break;
            ++popped;
            detection_result result;
            try {
                result = e.detector->push_bin(bin.y);
            } catch (...) {
                // The bin was consumed but never applied (e.g. a failed
                // background refit surfacing here); account for it so the
                // accepted == applied + dropped + pending invariant
                // survives the error.
                e.dropped.fetch_add(1, std::memory_order_relaxed);
                throw;
            }
            e.applied.fetch_add(1, std::memory_order_relaxed);
            e.record_latency(bin.enqueue_tick, monotone_now_ns());
            if (e.sink) e.sink(seq, result);
        }
        if (popped == 0) {
            // approx_size counted a ticket whose cell the producer has
            // not published yet; give it time instead of spinning hot.
            spin_then_sleep_backoff(stall++);
        } else {
            stall = 0;
        }
    }
}

// Claims the per-stream drain role and applies pending bins until the
// inbox is observed empty; returns immediately when another drainer is
// active (or close_stream owns the stream -- close applies the residue
// itself). The re-check loop closes the window where a producer enqueues
// after the drainer's last pop but before the role release.
void stream_server::stream_entry::drain_entry(stream_entry& e) {
    while (!e.inbox->empty()) {
        if (e.role_waiters.load(std::memory_order_relaxed) > 0) return;  // yield
        if (!try_claim_drain_role(e)) return;
        drain_role role(e);
        apply_pending(e, /*yield_to_waiters=*/true);
    }
}

ingest_result stream_server::ingest(stream_id id, std::span<const double> y) {
    const std::span<const double> one[] = {y};
    return ingest_batch(id, one);
}

ingest_result stream_server::ingest_batch(stream_id id,
                                          std::span<const std::span<const double>> ys) {
    const std::shared_ptr<stream_entry> e = find_entry(id);
    if (e == nullptr) return {ingest_error::unknown_stream, 0, 0};

    // Validate and stage the payloads before touching the entry lock.
    {
        sync::shared_lock guard(e->mu);
        if (e->closing.load(std::memory_order_acquire)) {
            return {ingest_error::stream_closed, 0, 0};
        }
        const std::size_t dim = e->detector->dimension();
        for (const std::span<const double>& y : ys) {
            if (y.size() != dim) {
                e->rejected.fetch_add(ys.size(), std::memory_order_relaxed);
                return {ingest_error::width_mismatch, 0, 0};
            }
        }
        if (ys.empty()) return {ingest_error::ok, e->inbox->next_sequence(), 0};
        if (ys.size() > e->inbox->capacity()) {
            // A run longer than the ring can never fit; report it as the
            // error it is instead of letting push_n throw (the concurrent
            // edge's contract is error codes, not exceptions).
            e->rejected.fetch_add(ys.size(), std::memory_order_relaxed);
            return {ingest_error::inbox_full, 0, 0};
        }
    }

    // One stamp for the whole batch, taken at staging: a block-policy
    // retry keeps the original stamp, so the reported latency charges the
    // full wait for ring space to the bins that waited.
    std::vector<stream_entry::ingest_item> items;
    items.reserve(ys.size());
    const std::uint64_t enqueue_tick = monotone_now_ns();
    for (const std::span<const double>& y : ys) {
        items.push_back({vec(y.begin(), y.end()), enqueue_tick});
    }

    // The entry lock guards only the closing-check + enqueue attempt (so
    // a close/snapshot can quiesce enqueues). The block-policy wait
    // happens OUTSIDE it -- a producer parked on a full ring must never
    // hold the lock a snapshot/set_ingest_sink needs to quiesce the
    // stream -- and the drain at the end runs outside it too, since its
    // sink may call back into the server.
    ingest_result out;
    for (;;) {
        bool must_wait = false;
        {
            sync::shared_lock guard(e->mu);
            if (e->closing.load(std::memory_order_acquire)) {
                return {ingest_error::stream_closed, 0, 0};
            }
            // Count the batch accepted BEFORE the push and roll back on
            // the outcomes that didn't take it. With the add after the
            // push, a drainer could apply these bins (applied +=) while
            // accepted still excluded them, and ingest_statistics would
            // observe accepted < applied + dropped -- the conservation
            // identity broken mid-flight. Counting first errs the other
            // way (bins briefly pending before they are visible), which
            // the derived pending absorbs by construction.
            e->accepted.fetch_add(ys.size(), std::memory_order_seq_cst);
            const auto pushed =
                e->inbox->try_push_n(std::span<stream_entry::ingest_item>(items));
            if (pushed.dropped > 0) {
                e->dropped.fetch_add(pushed.dropped, std::memory_order_relaxed);
            }
            switch (pushed.status) {
                case inbox_push_status::accepted:
                    out = {ingest_error::ok, pushed.sequence, ys.size()};
                    break;
                case inbox_push_status::closed:
                    e->accepted.fetch_sub(ys.size(), std::memory_order_seq_cst);
                    return {ingest_error::stream_closed, 0, 0};
                case inbox_push_status::full:
                    e->accepted.fetch_sub(ys.size(), std::memory_order_seq_cst);
                    if (e->opts.policy != inbox_policy::block) {
                        e->rejected.fetch_add(ys.size(), std::memory_order_relaxed);
                        return {ingest_error::inbox_full, 0, 0};
                    }
                    must_wait = true;
                    break;
            }
        }
        if (!must_wait) break;
        // Full under the block policy: an auto-drain producer first tries
        // to make room itself (without it, every producer could end up
        // parked here with a full ring and no drainer anywhere -- a
        // successful enqueue is otherwise the only drain trigger) and
        // retries immediately when that freed space; it only parks when
        // the ring is still full (another drainer holds the role, or a
        // maintenance op does). Accumulate-mode (auto_drain off) streams
        // rely on flush_stream, as documented.
        if (e->opts.auto_drain) {
            stream_entry::drain_entry(*e);
            if (!e->inbox->empty()) e->inbox->wait_for_space();
        } else {
            e->inbox->wait_for_space();
        }
    }
    if (e->opts.auto_drain) stream_entry::drain_entry(*e);
    return out;
}

void stream_server::flush_stream(stream_id id) {
    const std::shared_ptr<stream_entry> e = entry_or_throw(id);
    for (std::size_t spin = 0;; ++spin) {
        // A concurrent close_stream applies the residue itself (and owns
        // the drain role until teardown): nothing left for us.
        if (e->closing.load(std::memory_order_acquire)) return;
        stream_entry::drain_entry(*e);
        // Done only when the inbox is empty AND no drainer is mid-apply
        // (an active drainer may have popped the last bin but not pushed
        // it through the detector yet).
        if (e->inbox->empty() && !e->draining.load(std::memory_order_seq_cst)) return;
        spin_then_sleep_backoff(spin);
    }
}

void stream_server::flush_all() {
    // Snapshot the id list once; a flush_stream in the loop may run
    // arbitrarily long, and streams opened meanwhile are not this call's
    // responsibility (same copy-then-work shape as drain_all).
    for (const stream_id id : stream_ids()) {
        try {
            flush_stream(id);
        } catch (const std::invalid_argument&) {
            // Closed between the listing and the flush: close applied the
            // residue itself, which is exactly what a flush wants.
        }
    }
}

ingest_stats stream_server::ingest_statistics(stream_id id) const {
    const std::shared_ptr<stream_entry> e = entry_or_throw(id);
    ingest_stats st;
    // The shared entry lock pins the reads against close/snapshot
    // quiesce; producers and the drainer still run. Conservation holds
    // regardless: pending is DERIVED from the counters rather than read
    // from the ring, and producers count accepted before their bins are
    // visible (see ingest_batch), so reading applied and dropped first
    // and accepted last can only overestimate pending, never drive the
    // identity negative. The saturation below covers the one remaining
    // skew (a producer's rollback between our reads).
    sync::shared_lock guard(e->mu);
    st.applied = e->applied.load(std::memory_order_seq_cst);
    st.dropped = e->dropped.load(std::memory_order_seq_cst);
    st.rejected = e->rejected.load(std::memory_order_seq_cst);
    st.accepted = e->accepted.load(std::memory_order_seq_cst);
    const std::uint64_t settled = st.applied + st.dropped;
    st.pending = st.accepted > settled ? st.accepted - settled : 0;
    st.next_sequence = e->inbox->next_sequence();
    {
        sync::mutex_lock latency(e->latency_mu);
        st.latency_count = e->latency_count;
        if (e->latency_count > 0) {
            // Histogram buckets hold log2(ns); the percentile is the
            // bucket's upper edge, an upper bound on the true sample
            // quantile that can overshoot every sample. The max is exact
            // and no quantile exceeds it, so clamp to it.
            const double p50_ms = std::exp2(e->latency_hist.percentile(0.50)) / 1e6;
            const double p99_ms = std::exp2(e->latency_hist.percentile(0.99)) / 1e6;
            st.latency_max_ms = static_cast<double>(e->latency_max_ns) / 1e6;
            st.latency_p50_ms = std::min(p50_ms, st.latency_max_ms);
            st.latency_p99_ms = std::min(p99_ms, st.latency_max_ms);
        }
    }
    return st;
}

void stream_server::set_ingest_sink(stream_id id, ingest_sink sink) {
    const std::shared_ptr<stream_entry> e = entry_or_throw(id);
    // Quiesce the ingest edge for the swap: the drain role waits out an
    // active drainer first (so the swap cannot race a sink invocation,
    // and so we never wait for the role while holding the entry lock the
    // drainer's sink may need -- see snapshot_all), then the entry lock
    // stops new enqueues.
    if (!stream_entry::wait_for_drain_role(*e, /*bail_on_closing=*/true)) {
        throw std::invalid_argument("stream_server: stream " + std::to_string(id) +
                                    " is closing");
    }
    stream_entry::drain_role role(*e);
    sync::exclusive_lock guard(e->mu);
    e->sink = std::move(sink);
}

stream_server::stream_stats stream_server::stats(stream_id id) const {
    const std::shared_ptr<stream_entry> e = entry_or_throw(id);
    const stream_detector& det = *e->detector;
    return {det.dimension(), det.processed(), det.alarm_count(), det.model_epoch()};
}

const stream_detector& stream_server::stream(stream_id id) const {
    return *entry_or_throw(id)->detector;
}

std::size_t stream_server::stream_count() const {
    sync::shared_lock lock(mu_);
    return streams_.size();
}

std::vector<stream_id> stream_server::stream_ids() const {
    sync::shared_lock lock(mu_);
    std::vector<stream_id> ids;
    ids.reserve(streams_.size());
    for (const auto& [id, entry] : streams_) ids.push_back(id);
    return ids;
}

void stream_server::drain_all() {
    // Same shape as snapshot_all: never hold mu_ while waiting for a
    // drainer to retire (its sink may read the server), and take each
    // stream's drain role before joining its detector -- an ingest
    // auto-drain may be inside push_bin, touching the same maintenance
    // state detector->drain() consumes.
    sync::mutex_lock maintenance(maint_mu_);
    std::vector<std::shared_ptr<stream_entry>> entries;
    {
        sync::shared_lock lock(mu_);
        entries.reserve(streams_.size());
        for (auto& [id, entry] : streams_) entries.push_back(entry);
    }
    for (const std::shared_ptr<stream_entry>& entry : entries) {
        if (!stream_entry::wait_for_drain_role(*entry, /*bail_on_closing=*/true)) continue;
        stream_entry::drain_role role(*entry);
        sync::exclusive_lock lock(mu_);  // exclude push() during the join
        entry->detector->drain();
    }
}

void stream_server::snapshot_all(const std::string& directory) {
    // Serialize with close/restore/other snapshots, then work from a
    // copy of the stream map so mu_ is never held while waiting for a
    // stream to quiesce (an in-flight drain's sink may read the server;
    // see maint_mu_). Closes cannot run concurrently (they take
    // maint_mu_ too), so every copied entry stays valid; streams opened
    // after the copy are simply not part of this snapshot.
    sync::mutex_lock maintenance(maint_mu_);
    std::vector<std::pair<stream_id, std::shared_ptr<stream_entry>>> entries;
    stream_id next_id = 0;
    {
        sync::shared_lock lock(mu_);
        entries.assign(streams_.begin(), streams_.end());
        next_id = next_id_;
    }

    std::error_code ec;
    std::filesystem::create_directories(directory, ec);
    if (ec) {
        throw std::runtime_error("stream_server::snapshot_all: cannot create " + directory +
                                 ": " + ec.message());
    }
    for (auto& [id, entry] : entries) {
        // Quiesce this stream: the drain role waits out an active drainer
        // FIRST (holding neither mu_ nor the entry lock -- the drainer's
        // sink may read the server, and ingest_statistics takes the entry
        // lock shared, so waiting for the role while holding it exclusive
        // would deadlock against our own sink), then the entry lock stops
        // new enqueues, and the save below runs under mu_ exclusive to
        // exclude push(). The inbox is snapshotted as residue, NOT
        // drained, so the restored server resumes from exactly this
        // state. Lock order everywhere: drain role, then
        // entry lock (close_stream follows it too).
        stream_entry::acquire_drain_role(*entry);
        stream_entry::drain_role role(*entry);
        sync::exclusive_lock entry_lock(entry->mu);
        // Join background maintenance outside mu_ (a refit can take a
        // while); save() re-drains anything that slips in before the
        // exclusive section.
        entry->detector->drain();

        ckpt::writer record;
        write_stream_record(*entry, record);
        ckpt::write_file((std::filesystem::path(directory) / checkpoint_filename(id)).string(),
                         record.bytes());
    }

    ckpt::writer manifest;
    ckpt::write_header(manifest, k_manifest_tag);
    ckpt::write_u64(manifest, next_id);
    ckpt::write_u64(manifest, entries.size());
    for (const auto& [id, entry] : entries) ckpt::write_u64(manifest, id);
    ckpt::write_file((std::filesystem::path(directory) / "manifest.ckpt").string(),
                     manifest.bytes());
}

void stream_server::restore_all(const std::string& directory) {
    sync::mutex_lock maintenance(maint_mu_);
    sync::exclusive_lock lock(mu_);
    if (!streams_.empty()) {
        throw std::logic_error("stream_server::restore_all: server already has open streams");
    }

    const std::string manifest_bytes =
        ckpt::read_file((std::filesystem::path(directory) / "manifest.ckpt").string());
    ckpt::reader manifest(manifest_bytes);
    ckpt::expect_header(manifest, k_manifest_tag);
    const std::uint64_t saved_next_id = ckpt::read_u64(manifest);
    const std::uint64_t count = ckpt::read_u64(manifest);
    if (count > (1u << 20)) {
        throw ckpt::format_error("stream_server::restore_all: malformed manifest stream count");
    }

    std::map<stream_id, std::shared_ptr<stream_entry>> restored;
    stream_id max_id = 0;
    for (std::uint64_t s = 0; s < count; ++s) {
        const stream_id id = ckpt::read_u64(manifest);
        const std::string path =
            (std::filesystem::path(directory) / checkpoint_filename(id)).string();
        const std::string bytes = ckpt::read_file(path);
        ckpt::reader in(bytes);
        auto entry = read_stream_record(in, "stream_server::restore_all(" + path + ")");

        const auto [it, inserted] = restored.emplace(id, std::move(entry));
        if (!inserted) {
            throw std::runtime_error("stream_server::restore_all: duplicate stream id " +
                                     std::to_string(id));
        }
        max_id = std::max(max_id, id);
    }
    streams_ = std::move(restored);
    next_id_ = std::max<stream_id>(saved_next_id, max_id + 1);
}

// Writes the format-v3 "server_stream" container record for a quiesced
// stream. Caller holds the stream's drain role and entry lock (and
// maint_mu_); this function takes mu_ exclusive itself around the
// detector serialization to exclude push().
void stream_server::write_stream_record(stream_entry& entry, ckpt::writer& out) {
    ckpt::write_header(out, k_server_stream_tag);
    ckpt::write_u64(out, entry.inbox->capacity());
    ckpt::write_u64(out, static_cast<std::uint64_t>(entry.opts.policy));
    ckpt::write_flag(out, entry.opts.auto_drain);
    ckpt::write_u64(out, entry.accepted.load(std::memory_order_relaxed));
    ckpt::write_u64(out, entry.applied.load(std::memory_order_relaxed));
    ckpt::write_u64(out, entry.dropped.load(std::memory_order_relaxed));
    ckpt::write_u64(out, entry.rejected.load(std::memory_order_relaxed));
    ckpt::write_u64(out, entry.inbox->next_sequence());
    // Enqueue ticks are runtime-only: residue serializes the payload and
    // the restore restamps, so a checkpointed bin's latency is charged
    // from the restore, not across the downtime (or the migration).
    const auto residue = entry.inbox->snapshot_items();
    ckpt::write_u64(out, residue.size());
    for (const auto& [seq, bin] : residue) ckpt::write_vec(out, bin.y);
    // mu_ exclusive is what excludes push() on this stream. The record
    // goes to memory, so a slow file or socket never stalls the other
    // streams' pushes: callers write it out after mu_ is released.
    sync::exclusive_lock lock(mu_);
    entry.detector->save(out);
}

// Reads one "server_stream" record and builds a fresh, unpublished entry
// with counters restored and residue re-enqueued.
std::shared_ptr<stream_server::stream_entry> stream_server::read_stream_record(
    ckpt::reader& in, const std::string& context) {
    ckpt::expect_header(in, k_server_stream_tag);
    ingest_options opts;
    opts.capacity = ckpt::read_u64(in);
    if (opts.capacity == 0 ||
        opts.capacity > mpsc_inbox<stream_entry::ingest_item>::k_max_capacity) {
        throw ckpt::format_error(context + ": malformed inbox capacity");
    }
    const std::uint64_t policy = ckpt::read_u64(in);
    if (policy > static_cast<std::uint64_t>(inbox_policy::drop_oldest)) {
        throw ckpt::format_error(context + ": malformed ingest policy");
    }
    opts.policy = static_cast<inbox_policy>(policy);
    opts.auto_drain = ckpt::read_flag(in);
    const std::uint64_t accepted = ckpt::read_u64(in);
    const std::uint64_t applied = ckpt::read_u64(in);
    const std::uint64_t dropped = ckpt::read_u64(in);
    const std::uint64_t rejected = ckpt::read_u64(in);
    const std::uint64_t next_sequence = ckpt::read_u64(in);
    const std::uint64_t residue_count = ckpt::read_u64(in);
    if (residue_count > opts.capacity || residue_count > next_sequence) {
        throw ckpt::format_error(context + ": malformed inbox residue");
    }
    // Every writer holds the drain role and the exclusive entry lock, so
    // no bin is mid-enqueue or mid-apply and the identity is exact. A
    // record that breaks it would make ingest_statistics misreport
    // pending for the rest of the stream's life. Checked without
    // overflow: the counters are untrusted.
    if (applied > accepted || dropped > accepted - applied ||
        residue_count != accepted - applied - dropped) {
        throw ckpt::format_error(context +
                                 ": ingest counters break conservation (accepted " +
                                 std::to_string(accepted) + " != applied " +
                                 std::to_string(applied) + " + dropped " +
                                 std::to_string(dropped) + " + residue " +
                                 std::to_string(residue_count) + ")");
    }
    std::vector<vec> residue;
    residue.reserve(residue_count);
    for (std::uint64_t r = 0; r < residue_count; ++r) residue.push_back(ckpt::read_vec(in));
    std::unique_ptr<stream_detector> detector = load_stream_detector(in, pool_.get());

    auto entry = make_entry(std::move(detector), std::move(opts),
                            next_sequence - residue.size());
    const std::uint64_t restamp_tick = monotone_now_ns();
    for (vec& bin : residue) {
        if (bin.size() != entry->detector->dimension()) {
            throw ckpt::format_error(context + ": inbox residue width mismatch");
        }
        // The residue count was validated against the inbox capacity
        // above, so a rejected push means the checkpoint lied about one
        // of them -- losing the bin silently would desync the replay
        // sequence from the restored counters.
        if (entry->inbox->push(stream_entry::ingest_item{std::move(bin), restamp_tick})
                .status != inbox_push_status::accepted) {
            throw ckpt::format_error(context + ": inbox rejected checkpoint residue");
        }
    }
    entry->accepted.store(accepted, std::memory_order_relaxed);
    entry->applied.store(applied, std::memory_order_relaxed);
    entry->dropped.store(dropped, std::memory_order_relaxed);
    entry->rejected.store(rejected, std::memory_order_relaxed);
    return entry;
}

std::string stream_server::snapshot_stream(stream_id id) {
    // Same quiesce discipline as snapshot_all, for one stream: maint_mu_
    // serializes against close/detach/restore (so the entry cannot die
    // under us), the drain role waits out an active drainer while holding
    // neither mu_ nor the entry lock, then the entry lock stops new
    // enqueues for the duration of the record write.
    sync::mutex_lock maintenance(maint_mu_);
    const std::shared_ptr<stream_entry> e = entry_or_throw(id);
    stream_entry::acquire_drain_role(*e);
    stream_entry::drain_role role(*e);
    sync::exclusive_lock entry_lock(e->mu);
    e->detector->drain();
    ckpt::writer out;
    write_stream_record(*e, out);
    return out.release();
}

void stream_server::snapshot_stream(stream_id id, std::ostream& out, ckpt::encoding) {
    const std::string record = snapshot_stream(id);
    out.write(record.data(), static_cast<std::streamsize>(record.size()));
    if (!out) throw std::runtime_error("stream_server: stream record write failed");
}

std::string stream_server::detach_stream(stream_id id) {
    // close_stream's teardown sequence, except the pending inbox bins are
    // snapshotted as residue instead of applied: they belong to the
    // record's restored inbox, not to the dying local detector.
    sync::mutex_lock maintenance(maint_mu_);
    std::shared_ptr<stream_entry> victim;
    {
        sync::exclusive_lock lock(mu_);
        const auto it = streams_.find(id);
        if (it == streams_.end()) {
            throw std::invalid_argument("stream_server: unknown stream id " +
                                        std::to_string(id));
        }
        victim = std::move(it->second);
        streams_.erase(it);
    }
    // Stop the concurrent edge: new ingests bounce off the map lookup,
    // producers blocked on a full inbox wake and return stream_closed,
    // in-flight ingests either finish enqueueing (their bins travel in
    // the residue) or observe the closing flag. Nothing is silently
    // dropped: every accepted bin is either already applied or in the
    // snapshot.
    victim->closing.store(true, std::memory_order_release);
    victim->inbox->close();
    stream_entry::acquire_drain_role(*victim);
    ckpt::writer out;
    {
        sync::exclusive_lock entry_lock(victim->mu);
        victim->detector->drain();
        write_stream_record(*victim, out);
    }
    // Like close_stream: the role is adopted permanently (the draining
    // flag stays set) so no late auto-drain touches the dying detector;
    // balance the acquire for the analysis only.
    victim->drain_cap.release();
    return out.release();
}

stream_id stream_server::restore_stream(std::string_view record) {
    sync::mutex_lock maintenance(maint_mu_);
    ckpt::reader in(record);
    std::shared_ptr<stream_entry> entry =
        read_stream_record(in, "stream_server::restore_stream");
    sync::exclusive_lock lock(mu_);
    const stream_id id = next_id_++;
    streams_.emplace(id, std::move(entry));
    return id;
}

stream_id stream_server::restore_stream(std::istream& in) {
    std::ostringstream record;
    record << in.rdbuf();
    return restore_stream(std::move(record).str());
}

}  // namespace netdiag
