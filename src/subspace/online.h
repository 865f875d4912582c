// Online deployment of the subspace method (Section 7.1), refactored as a
// pipelined streaming subsystem.
//
// The paper envisions the method as a first-level online monitor: the PCA
// model is recomputed only occasionally (it is stable week to week), while
// each arriving measurement is processed against the fixed projector.
// Three push-based detectors implement the common stream_detector
// interface (see subspace/stream_detector.h):
//  - streaming_diagnoser: keeps a sliding window and refits the full model
//    every refit_interval measurements;
//  - incremental_pca_tracker: maintains the principal axes with rank-1
//    SVD row updates (the [12, 13, 24] family the paper cites), avoiding
//    full recomputation entirely;
//  - tracking_detector: SPE detection on top of the tracker.
//
// Pipelining: a refit is the maintenance path; testing the next bin is
// the detection path. With an engine thread_pool a deferred refit runs as a
// background task while detection keeps reading the current
// epoch-versioned model snapshot, and the snapshot swap is applied on the
// push thread at a deterministic bin boundary -- so the output sequence
// depends only on the input stream, never on thread timing. A rank-1 fold
// costs O(m k) and always runs inline on the push thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <optional>
#include <span>

#include "engine/sync.h"
#include "linalg/matrix.h"
#include "linalg/svd_update.h"
#include "linalg/vector_ops.h"
#include "subspace/diagnoser.h"
#include "subspace/stream_detector.h"

namespace netdiag {

class thread_pool;

namespace ckpt {
class reader;
}  // namespace ckpt

// Stacks a measurement window into a t x m matrix, one window entry per
// row. Throws std::invalid_argument on an empty window (a refit must never
// run before any measurement survives the window).
matrix window_to_matrix(const std::deque<vec>& window);

// How streaming_diagnoser applies periodic refits.
enum class refit_mode {
    // Legacy: the triggering push fits the new model inline (stalls that
    // push for the whole fit; the engine pool, when set, shards the fit).
    blocking,
    // Deterministic pipelining: the fit runs as a background task on the
    // pool (serially -- its result is bit-identical either way) and the
    // swap is applied exactly swap_horizon bins after the trigger,
    // whether or not the fit finished earlier. push only waits at that
    // boundary, and only when the fit is slower than swap_horizon bins of
    // stream. Without a pool the fit runs inline but the swap still
    // honours the boundary, so results match any pool size bit-for-bit.
    deferred,
};

struct streaming_config {
    std::size_t window = 1008;         // measurements kept for refits
    std::size_t refit_interval = 144;  // refit every day of 10-min bins; 0 = never
    double confidence = 0.999;
    separation_config separation;
    // Non-owning; when set, blocking-mode refits shard their fit across
    // the pool while deferred refits run on it as background tasks.
    // Must outlive the diagnoser.
    thread_pool* pool = nullptr;
    refit_mode mode = refit_mode::blocking;
    // deferred mode: bins between the refit trigger and the model swap.
    std::size_t swap_horizon = 8;
    // Observability/test seam: runs at the start of every refit fit, on
    // whichever thread performs it. Not serialized by checkpoints.
    std::function<void()> refit_observer;
};

class streaming_diagnoser final : public stream_detector {
public:
    // bootstrap_y supplies the initial model (epoch 0) and seeds the
    // window. Throws std::invalid_argument when bootstrap has fewer than
    // two rows or the routing matrix does not match its width.
    streaming_diagnoser(const matrix& bootstrap_y, const matrix& a, streaming_config cfg = {});

    streaming_diagnoser(streaming_diagnoser&&) = default;
    streaming_diagnoser& operator=(streaming_diagnoser&&) = default;

    // Joins any in-flight background refit before the members it reads
    // are torn down.
    ~streaming_diagnoser() override;

    // Processes one measurement: applies a due model swap, diagnoses the
    // measurement against the current snapshot, appends it to the window,
    // and triggers a refit when the interval elapses.
    diagnosis push(std::span<const double> y);

    // stream_detector interface. push_bin is push() minus the
    // identification fields.
    detection_result push_bin(std::span<const double> y) override;
    std::size_t dimension() const noexcept override { return a_.rows(); }
    std::size_t processed() const noexcept override { return processed_; }
    std::size_t alarm_count() const noexcept override { return alarms_; }
    std::uint64_t model_epoch() const noexcept override { return epoch_; }
    void drain() override;
    void save(ckpt::writer& out) override;

    // Rebuilds a diagnoser saved by save(). The pool (and observer) are
    // runtime wiring, not state: pass whatever the restored stream should
    // use. Throws ckpt::format_error on malformed input.
    static streaming_diagnoser restore(ckpt::reader& in, thread_pool* pool = nullptr);

    // Applied refits (== model_epoch()).
    std::size_t refit_count() const noexcept { return refits_; }
    // True while a background fit is computing or a finished fit awaits
    // its deferred swap boundary. Push-thread only, like every accessor of
    // the deferred-refit state (the single-pusher contract below).
    bool refit_pending() const noexcept {
        pusher_cap_.assert_held();
        return inflight_.valid() || ready_.has_value();
    }
    // True when a trigger fired while a refit was pending and its window
    // snapshot is queued to fit as soon as the pending swap applies.
    bool refit_queued() const noexcept {
        pusher_cap_.assert_held();
        return queued_window_.has_value();
    }
    const volume_anomaly_diagnoser& current() const noexcept { return diagnoser_; }

private:
    struct restored_state;  // defined in online.cpp
    explicit streaming_diagnoser(restored_state&& state);

    void maybe_apply_swap() NETDIAG_REQUIRES(pusher_cap_);
    void trigger_refit() NETDIAG_REQUIRES(pusher_cap_);
    void launch_refit(matrix&& snapshot) NETDIAG_REQUIRES(pusher_cap_);
    void apply_swap(volume_anomaly_diagnoser&& next) NETDIAG_REQUIRES(pusher_cap_);
    volume_anomaly_diagnoser take_pending() NETDIAG_REQUIRES(pusher_cap_);

    // The single-pusher contract as a capability: push/push_bin/drain/
    // save must come from one thread at a time (the
    // stream_detector contract), so the window and the deferred-refit
    // slots below are confined to whoever plays that role. Entry points
    // assert it; the background fit task touches none of these fields
    // (it only fulfills the future inflight_ refers to).
    sync::role pusher_cap_;

    streaming_config cfg_;
    matrix a_;
    std::deque<vec> window_ NETDIAG_GUARDED_BY(pusher_cap_);
    volume_anomaly_diagnoser diagnoser_;
    std::uint64_t epoch_ = 0;
    std::size_t processed_ = 0;
    std::size_t alarms_ = 0;
    std::size_t refits_ = 0;
    std::size_t since_refit_ NETDIAG_GUARDED_BY(pusher_cap_) = 0;

    // Background refit state. At most one refit is *computing* at a time;
    // a trigger that fires while one is pending queues its window snapshot
    // (freshest wins -- the queue is one slot deep, which is also the
    // per-stream refit backpressure bound the serving front-end relies
    // on), and the queued fit launches the moment the pending swap is
    // applied. Deterministic in deferred mode, since pendingness is itself
    // deterministic there.
    std::future<volume_anomaly_diagnoser> inflight_ NETDIAG_GUARDED_BY(pusher_cap_);
    std::optional<volume_anomaly_diagnoser> ready_ NETDIAG_GUARDED_BY(pusher_cap_);
    std::optional<matrix> queued_window_ NETDIAG_GUARDED_BY(pusher_cap_);
    // deferred: processed_ value at which to swap
    std::size_t swap_at_ NETDIAG_GUARDED_BY(pusher_cap_) = 0;
};

// Rank-1 principal-axis tracker. Maintains (approximately) the top
// max_rank principal axes and variances of the growing measurement matrix
// without ever recomputing a full decomposition. As a stream_detector it
// is maintenance-only: push_bin folds the sample and reports a non-alarm
// (SPE 0 against an infinite threshold); every fold advances the epoch.
class incremental_pca_tracker final : public stream_detector {
public:
    // Throws std::invalid_argument when bootstrap has fewer than two rows
    // or max_rank is zero. A non-null pool shards the bootstrap SVD
    // (bit-identical for any pool size); every rank-1 fold is serial.
    incremental_pca_tracker(const matrix& bootstrap_y, std::size_t max_rank,
                            thread_pool* pool = nullptr);

    void push(std::span<const double> y);

    detection_result push_bin(std::span<const double> y) override;
    std::size_t dimension() const noexcept override { return mean_.size(); }
    std::size_t processed() const noexcept override { return pushed_; }
    std::size_t alarm_count() const noexcept override { return 0; }
    std::uint64_t model_epoch() const noexcept override { return pushed_; }
    void drain() override {}  // folds are synchronous
    void save(ckpt::writer& out) override;
    static incremental_pca_tracker restore(ckpt::reader& in);

    std::size_t sample_count() const noexcept { return count_; }
    std::size_t rank() const noexcept { return svd_.v.cols(); }
    const matrix& axes() const noexcept { return svd_.v; }
    const vec& running_mean() const noexcept { return mean_; }

    // Variance captured per tracked axis: s_i^2 / (count - 1).
    vec axis_variance() const;

private:
    incremental_pca_tracker() = default;

    right_svd svd_;
    vec mean_;
    std::size_t count_ = 0;
    std::size_t max_rank_ = 0;
    std::uint64_t pushed_ = 0;
};

// Fully incremental online detector built on rank-1 SVD updates: the
// model is *never* refit from scratch. The normal subspace is the first
// `normal_rank` tracked axes (separated once, on the bootstrap data, by
// the 3-sigma rule); SPE is computed against the tracked axes, and the
// Q-statistic threshold uses the tracked residual eigenvalues plus the
// untracked remainder variance spread uniformly over the remaining
// dimensions -- a documented approximation, since the tracker keeps only
// max_rank components.
class tracking_detector final : public stream_detector {
public:
    // max_rank bounds the tracked spectrum; it is raised to the separation
    // rank + 1 when smaller, so a tracked residual tail always exists.
    // The bootstrap PCA is fit exactly once (shared by the rank raise and
    // the subspace separation); a non-null pool shards that fit. Every
    // rank-1 fold runs inline on the push thread. deferred_updates must be
    // false: the parameter remains only because the end-to-end benchmark
    // harness passes it. Throws std::invalid_argument when it is true, on
    // a degenerate bootstrap or on a confidence outside (0, 1).
    tracking_detector(const matrix& bootstrap_y, std::size_t max_rank,
                      double confidence = 0.999, const separation_config& sep = {},
                      thread_pool* pool = nullptr, bool deferred_updates = false);

    // Tests the measurement against the current model, then folds it into
    // the tracked decomposition (every measurement refines the model).
    detection_result push(std::span<const double> y);

    // Test only, without updating the model.
    detection_result test(std::span<const double> y) const;

    detection_result push_bin(std::span<const double> y) override { return push(y); }
    std::size_t dimension() const noexcept override { return dimension_; }
    std::size_t processed() const noexcept override { return processed_; }
    std::size_t alarm_count() const noexcept override { return alarms_; }
    std::uint64_t model_epoch() const noexcept override { return epoch_; }
    void drain() override {}  // folds are synchronous
    void save(ckpt::writer& out) override;
    // Throws ckpt::format_error on malformed input, including a normal
    // rank above the dimension.
    static tracking_detector restore(ckpt::reader& in);

    std::size_t normal_rank() const noexcept { return normal_rank_; }
    double threshold() const noexcept { return threshold_; }
    const incremental_pca_tracker& tracker() const noexcept { return tracker_; }

private:
    explicit tracking_detector(incremental_pca_tracker&& tracker);

    // Delegation target taking the bootstrap separation rank, so the
    // bootstrap PCA is fit once and reused for both the tracker's rank
    // floor and the normal-subspace rank. The tag keeps the overload from
    // colliding with the public constructor (a braced separation_config
    // would otherwise be ambiguous against the rank).
    struct bootstrap_rank_tag {};
    tracking_detector(bootstrap_rank_tag, const matrix& bootstrap_y, std::size_t max_rank,
                      double confidence, std::size_t bootstrap_normal_rank, thread_pool* pool);

    void refresh_threshold();

    incremental_pca_tracker tracker_;
    double confidence_ = 0.999;
    std::size_t normal_rank_ = 0;
    std::size_t dimension_ = 0;
    double threshold_ = 0.0;
    double total_variance_sum_ = 0.0;  // running sum of ||y - mean||^2
    std::size_t processed_ = 0;
    std::size_t alarms_ = 0;
    std::uint64_t epoch_ = 0;  // folds applied
};

}  // namespace netdiag
