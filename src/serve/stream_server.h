// Multi-stream serving front-end with concurrent-by-construction ingest.
// One stream_server owns N independent stream_detector instances -- any
// mix of streaming_diagnoser / tracking_detector /
// incremental_pca_tracker, one per PoP / customer / vantage point -- each
// with its own epoch space, its own bounded ingest inbox, and its
// background maintenance (deferred refits) multiplexed over one shared
// engine thread_pool.
//
// Parity guarantee: the server adds routing, never arithmetic. A stream
// served here produces bit-identical output -- verdicts, SPE, thresholds,
// epochs -- to the same detector run alone with the same refit mode, for
// every pool size including none. The reference order is the *sequence
// order the inbox assigned at enqueue* (returned from ingest(), reported
// to the sink): replaying those bins through a standalone single-pusher
// detector in sequence order reproduces every served output bit-for-bit.
// This holds by construction: per-stream state is only ever touched by
// one drainer at a time, and the epoch-versioning discipline makes each
// detector's output a function of its own input sequence alone.
//
// One serving discipline per stream: ingest()/ingest_batch() enqueue into
// the stream's bounded MPSC inbox (engine/mpsc_inbox.h) from any number
// of producer threads; each accepted bin gets a monotone sequence at
// enqueue, and a single drainer at a time applies bins in sequence order
// through the detector, delivering each result to the stream's optional
// ingest sink. The drainer is always a caller thread: with auto_drain
// (the default) one ingesting caller claims the per-stream drain role and
// the rest return right after enqueueing; with auto_drain off, bins
// accumulate until flush_stream(). A drain may wait at a deferred refit's
// swap boundary, which is legal because it runs on a caller thread, never
// on a pool worker. Backpressure when an inbox is full is per-stream
// policy: block (wait for the drainer), reject (ingest returns
// inbox_full), or drop_oldest (evict the oldest pending bin; newest data
// wins).
//
// push() is the single-stream synchronous reference: one externally
// ordered pusher per stream, result returned on the calling thread,
// bypassing the inbox. Mixing it *concurrently* with ingest on the same
// stream is a contract violation; mixing them sequentially -- quiesce,
// then switch -- is fine.
//
// Per-stream pending-refit work is bounded: a streaming_diagnoser has at
// most one refit computing plus one queued freshest-window snapshot (see
// subspace/online.h), so a stream that triggers refits faster than they
// fit degrades to refitting at fit speed instead of piling tasks onto the
// shared pool.
//
// Threading contract: open/close/snapshot/restore serialize against each
// other (a maintenance mutex); push/stats may run concurrently with each
// other from different threads provided no two pushes touch the same
// stream at once. ingest/ingest_batch/flush_stream may run concurrently
// from any number of threads against any streams (that is their point),
// but not concurrently with push on the *same* stream. An ingest sink may
// safely call the server's read accessors (stats/stream/
// ingest_statistics): drains hold only the per-stream drain role while
// applying, never a server-wide lock, and maintenance operations never
// hold the server-wide lock while waiting for a drain to finish. Do not
// call ingest or flush_stream from a job running on the server's own pool
// (the drain may wait on a refit future, and no pool job ever waits --
// thread_pool::assert_wait_allowed() enforces this at runtime), and
// quiesce all API calls before destroying the server.
//
// Checkpointing: snapshot_all writes format-v3 per-stream records that
// carry the ingest inbox's configuration and *residue* (pending,
// not-yet-applied bins) next to the detector state, so a server
// snapshotted with non-empty inboxes restores to exactly that state and
// the replay -- residue first, in sequence order, then new bins -- stays
// bit-exact. See docs/CHECKPOINT_FORMAT.md and
// measurement/stream_checkpoint.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/mpsc_inbox.h"
#include "engine/sync.h"
#include "engine/thread_pool.h"
#include "linalg/matrix.h"
#include "measurement/stream_checkpoint.h"
#include "subspace/online.h"
#include "subspace/stream_detector.h"

namespace netdiag {

// Identifies one open stream for the lifetime of the server (and across
// snapshot_all / restore_all round trips). Never reused after close.
using stream_id = std::uint64_t;

// The detectors open_stream builds. A maintenance-only
// incremental_pca_tracker is served through adopt_stream.
enum class stream_kind {
    diagnoser,  // streaming_diagnoser: sliding window + periodic refits
    tracking,   // tracking_detector: SPE detection over rank-1 updates
};

// Receives every inbox-applied bin's result, on the drainer's thread, in
// sequence order. Runtime wiring like the pool: not serialized by
// checkpoints (re-attach with set_ingest_sink after restore_all).
using ingest_sink = std::function<void(std::uint64_t sequence, const detection_result&)>;

// Per-stream ingest-inbox configuration.
struct ingest_options {
    // Ring capacity; 0 selects global_tuning().ingest_inbox_capacity.
    // Rounded up to a power of two.
    std::size_t capacity = 0;
    inbox_policy policy = inbox_policy::block;
    // true: ingesting callers opportunistically drain (one at a time).
    // false: bins accumulate until flush_stream() or close_stream().
    bool auto_drain = true;
    ingest_sink sink;
};

enum class ingest_error {
    ok = 0,
    unknown_stream,  // no such id
    width_mismatch,  // a bin's width differs from the stream's dimension
    inbox_full,      // reject policy and the ring is full (nothing enqueued)
    stream_closed,   // close_stream ran while this ingest was in flight
};

struct ingest_result {
    ingest_error error = ingest_error::ok;
    std::uint64_t sequence = 0;  // first sequence of the accepted run
    std::uint64_t accepted = 0;  // bins enqueued (0 on error)
    bool ok() const noexcept { return error == ingest_error::ok; }
};

// Per-stream ingest counters. Conservation invariant:
// accepted == applied + dropped + pending -- it holds even when an apply
// throws (the consumed bin is counted as dropped), and it holds in every
// snapshot ingest_statistics() returns, not just between drains: pending
// is *derived* as accepted - applied - dropped from a read ordering that
// makes the difference non-negative, so a concurrent drain can never be
// observed mid-violation. Consequence of the derivation: a bin a drainer
// has popped but not yet pushed through the detector still counts as
// pending (it is not yet applied), so pending can exceed the ring's
// instantaneous occupancy by the one in-flight bin.
struct ingest_stats {
    std::uint64_t accepted = 0;   // bins enqueued successfully
    std::uint64_t applied = 0;    // bins drained through the detector
    std::uint64_t dropped = 0;    // bins evicted by drop_oldest, or
                                  // consumed by an apply that threw
    std::uint64_t rejected = 0;   // bins refused (full / width mismatch)
    std::uint64_t pending = 0;    // accepted - applied - dropped
    std::uint64_t next_sequence = 0;
    // Ingest-to-applied latency: monotone-clock interval from a bin's
    // enqueue into the inbox to the completion of its detector apply,
    // over this stream's applied bins. Percentiles come from a fixed
    // log2-domain histogram (stats/histogram.h): each reported value is
    // the upper edge of its quarter-log2 bucket (<= ~19% relative slack
    // above the true quantile), clamped to the exact max, so
    // p50 <= p99 <= max always holds. All zero until the first bin is
    // applied.
    std::uint64_t latency_count = 0;  // bins the histogram has seen
    double latency_p50_ms = 0.0;
    double latency_p99_ms = 0.0;
    double latency_max_ms = 0.0;
};

// Everything needed to build one stream's detector. The server overrides
// any pool wiring with its own shared pool.
struct stream_open_config {
    stream_kind kind = stream_kind::diagnoser;
    matrix bootstrap_y;  // initial model fit + window/tracker seed

    // diagnoser only.
    matrix a;  // routing matrix (links x OD flows)
    streaming_config streaming;

    // tracking only.
    std::size_t max_rank = 10;
    double confidence = 0.999;
    separation_config separation;

    // Ingest inbox wiring (concurrent edge); defaults give a blocking
    // auto-drained inbox of tuning-default capacity.
    ingest_options ingest;
};

struct stream_server_config {
    // Worker threads in the shared pool. 0 = no pool at all: every push,
    // refit and fold runs on the calling thread (the deterministic
    // reference the parity tests compare against).
    std::size_t threads = 0;
};

class stream_server {
public:
    explicit stream_server(stream_server_config cfg = {});

    // Joins every stream's in-flight maintenance and destroys the
    // streams (never throws past the teardown). Pending inbox bins are
    // discarded: snapshot_all or close_stream first if they matter.
    ~stream_server();

    stream_server(const stream_server&) = delete;
    stream_server& operator=(const stream_server&) = delete;

    // Builds a detector from cfg wired to the server's pool and registers
    // it under a fresh id. Throws whatever the detector constructor
    // throws on a degenerate bootstrap.
    [[nodiscard]] stream_id open_stream(stream_open_config cfg);

    // Registers an already-built detector (which must be wired to pool()
    // or to no pool). Throws std::invalid_argument on null.
    [[nodiscard]] stream_id adopt_stream(std::unique_ptr<stream_detector> detector,
                                         ingest_options ingest = {});

    // Unpublishes the stream, wakes any producer blocked on its inbox
    // (their ingest returns stream_closed), applies every pending inbox
    // bin in sequence order, drains the detector's in-flight maintenance
    // and removes it. Other streams are untouched -- closing a stream
    // never perturbs their output. Throws std::invalid_argument on an
    // unknown id.
    void close_stream(stream_id id);

    // --- Synchronous reference push ---------------------------------------

    // Pushes one bin to one stream on the calling thread, bypassing the
    // inbox. Throws std::invalid_argument on an unknown id or a width
    // mismatch.
    detection_result push(stream_id id, std::span<const double> y);

    // --- Ingest -----------------------------------------------------------

    // Enqueues one bin into the stream's inbox; any number of threads may
    // ingest into the same stream concurrently. The returned sequence is
    // the stream-monotone position the bin will be applied at. Errors are
    // reported as distinct ingest_error values, never exceptions --
    // except detector errors surfacing from an auto-drain (a failed
    // background refit), which propagate like push() would.
    [[nodiscard]] ingest_result ingest(stream_id id, std::span<const double> y);

    // Enqueues a run of bins with consecutive sequences (no other
    // producer interleaves the run), all-or-nothing under the reject
    // policy. Width is validated for every bin before anything enqueues;
    // a run longer than the stream's ring capacity returns inbox_full
    // under every policy (it can never fit).
    [[nodiscard]] ingest_result ingest_batch(stream_id id,
                                             std::span<const std::span<const double>> ys);

    // Applies every bin currently pending in the stream's inbox (waiting
    // for an active drainer to hand over if necessary). Returns when the
    // inbox has been observed empty with no drain in progress. Throws
    // std::invalid_argument on an unknown id; rethrows detector errors.
    void flush_stream(stream_id id);

    // flush_stream over every open stream (drain-role-correct: each
    // stream is flushed through the same claim/hand-over protocol as
    // flush_stream, so it composes with concurrent drains and
    // producers). Streams closed concurrently are skipped;
    // streams opened concurrently may or may not be flushed. Rethrows
    // detector errors like flush_stream.
    void flush_all();

    // Counters for the ingest edge, readable at any time.
    [[nodiscard]] ingest_stats ingest_statistics(stream_id id) const;

    // Re-attaches the runtime sink (e.g. after restore_all). Quiesces the
    // stream's ingest edge for the swap.
    void set_ingest_sink(stream_id id, ingest_sink sink);

    // --- Observation ------------------------------------------------------

    // Per-stream counters, readable between pushes.
    struct stream_stats {
        std::size_t dimension = 0;
        std::size_t processed = 0;
        std::size_t alarms = 0;
        std::uint64_t epoch = 0;
    };
    stream_stats stats(stream_id id) const;

    // Read access to a stream's detector (e.g. to downcast for
    // detector-specific inspection in tests). Throws on unknown id.
    const stream_detector& stream(stream_id id) const;

    std::size_t stream_count() const;
    std::vector<stream_id> stream_ids() const;

    // The shared pool, or nullptr when configured with threads == 0.
    thread_pool* pool() noexcept { return pool_.get(); }
    std::size_t pool_size() const noexcept { return pool_ ? pool_->size() : 0; }

    // Blocks until no stream has background maintenance in flight. Does
    // not drain ingest inboxes (use flush_stream for that); waits out an
    // active inbox drainer per stream first, so it cannot race one.
    void drain_all();

    // --- Checkpointing ----------------------------------------------------

    // Checkpoints every stream into directory (created if missing):
    // stream_<id>.ckpt per stream -- a format-v3 record carrying the
    // ingest inbox configuration, counters and residue (pending bins are
    // saved, NOT drained) around the detector state -- plus a manifest
    // binding ids to files. Detector maintenance is drained first, so the
    // bytes are independent of pool size and timing. Quiesces each
    // stream in turn (ingest via the entry lock + drain role, push()
    // via the server lock around the save) rather than
    // freezing the whole server at once, so an in-flight drain whose
    // sink calls back into the server can always finish. Streams opened
    // concurrently with the snapshot may or may not be included; streams
    // cannot close mid-snapshot (maintenance ops serialize). Throws
    // std::runtime_error on I/O failure.
    void snapshot_all(const std::string& directory);

    // Reopens every stream recorded by snapshot_all under its original
    // id, wired to this server's pool, with its inbox residue re-enqueued
    // under the original sequence numbers. The server must have no open
    // streams. Throws std::runtime_error on a missing manifest or
    // checkpoint file, ckpt::format_error on a malformed one, and
    // std::logic_error when streams are already open.
    void restore_all(const std::string& directory);

    // Checkpoints ONE stream as a self-contained per-stream record (the
    // same format-v3 "server_stream" container snapshot_all writes) and
    // returns it; the record is what the wire protocol's snapshot payload
    // carries (docs/WIRE_FORMAT.md). Quiesces the stream's ingest edge for
    // the write (drain role + entry lock), drains detector maintenance so
    // the bytes are timing-independent, and snapshots pending inbox bins
    // as residue without applying them; the stream stays open and
    // resumes afterwards. Throws std::invalid_argument on an unknown id.
    [[nodiscard]] std::string snapshot_stream(stream_id id);
    // The same record, written to `out`. Stream-based callers (the
    // end-to-end benchmark harness among them) use this form; `enc` has
    // a single value. Throws std::runtime_error when the write fails.
    void snapshot_stream(stream_id id, std::ostream& out, ckpt::encoding enc);

    // The migration primitive: removes the stream from the server and
    // returns the same record snapshot_stream returns. Unpublishes the
    // stream, closes its inbox -- concurrent ingests (including
    // producers blocked on a full ring) return stream_closed from this
    // point on, never silently dropping a bin -- then snapshots the
    // residue WITHOUT applying it and destroys the local detector, so
    // every accepted-but-unapplied bin travels in the record and
    // restore_stream on another server resumes from exactly this state
    // (accepted == applied + dropped + pending holds across the move,
    // and the replay stays bit-exact). Throws std::invalid_argument on an
    // unknown id.
    [[nodiscard]] std::string detach_stream(stream_id id);

    // Restores one stream from a record written by snapshot_stream /
    // detach_stream, wiring it to this server's pool and registering it
    // under a FRESH id on this server -- the caller re-points collectors
    // at the returned id. Inbox residue is re-enqueued under its original
    // sequence numbers. Throws ckpt::format_error on malformed input,
    // including a record whose ingest counters break accepted ==
    // applied + dropped + residue.
    [[nodiscard]] stream_id restore_stream(std::string_view record);
    // Same, reading the record from the rest of `in`.
    [[nodiscard]] stream_id restore_stream(std::istream& in);

private:
    struct stream_entry;

    static std::shared_ptr<stream_entry> make_entry(std::unique_ptr<stream_detector> detector,
                                                    ingest_options&& opts,
                                                    std::uint64_t start_sequence);
    std::shared_ptr<stream_entry> find_entry(stream_id id) const;
    std::shared_ptr<stream_entry> entry_or_throw(stream_id id) const;
    std::unique_ptr<stream_detector> build_detector(stream_open_config&& cfg);
    stream_id register_stream(std::unique_ptr<stream_detector> detector,
                              ingest_options&& ingest);
    // Shared per-stream record codec: writes/reads the format-v3
    // "server_stream" container (inbox config + counters + residue +
    // nested detector record). The writer requires the stream quiesced
    // (drain role + entry lock held by the caller) and takes mu_
    // exclusive itself around the detector serialization; the reader
    // builds a fresh, unpublished entry.
    void write_stream_record(stream_entry& entry, ckpt::writer& out);
    std::shared_ptr<stream_entry> read_stream_record(ckpt::reader& in,
                                                     const std::string& context);

    std::unique_ptr<thread_pool> pool_;
    mutable sync::shared_mutex mu_;
    // Serializes the maintenance operations (close_stream, snapshot_all,
    // restore_all) against each other WITHOUT holding mu_ across their
    // waits: a drain in flight may invoke an ingest sink that calls the
    // server's read accessors (mu_ shared), so a maintenance op that held
    // mu_ exclusive while waiting for that drain to retire would
    // deadlock. Lock order: maint_mu_ -> (entry lock / drain role) ->
    // mu_; nothing acquires an entry lock or a drain role while holding
    // mu_.
    sync::mutex maint_mu_ NETDIAG_ACQUIRED_BEFORE(mu_);
    // Ordered so snapshot_all and stream_ids() enumerate deterministically.
    std::map<stream_id, std::shared_ptr<stream_entry>> streams_ NETDIAG_GUARDED_BY(mu_);
    stream_id next_id_ NETDIAG_GUARDED_BY(mu_) = 1;
};

}  // namespace netdiag
