// The unified face of the streaming subsystem (Section 7.1 made
// operational): every push-based online detector -- the window-refit
// streaming_diagnoser, the rank-1 tracking_detector, and the bare
// incremental_pca_tracker -- speaks this interface.
//
// Model-swap semantics: each implementation separates the *detection
// path* (test the arriving bin against an epoch-versioned model snapshot)
// from the *maintenance path* (refit or fold that produces the next
// snapshot). A deferred refit runs on an engine thread_pool so push_bin
// never stalls on it, and a rank-1 fold is cheap enough to run inline; the
// snapshot swap is applied on the push thread at
// a deterministic bin boundary, so for a fixed input stream the entire
// output sequence -- verdicts, epochs, alarm counts -- is bit-identical
// for every pool size, including no pool at all.
//
// Checkpointing: save() serializes the complete detector state (current
// model, maintenance buffers, pending refit, counters, epoch) after
// draining any in-flight background work, so a stream snapshotted mid-run
// and restored from disk replays the exact remaining detection sequence.
// See measurement/stream_checkpoint.h for the file facade.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "subspace/detector.h"

namespace netdiag {

namespace ckpt {
class writer;
}  // namespace ckpt

class stream_detector {
public:
    virtual ~stream_detector() = default;

    stream_detector() = default;
    stream_detector(const stream_detector&) = default;
    stream_detector& operator=(const stream_detector&) = default;

    // Processes one measurement bin: tests it against the current model
    // epoch, then feeds it to the maintenance path. Never blocks on a
    // background refit except at that refit's own swap boundary.
    virtual detection_result push_bin(std::span<const double> y) = 0;

    // Width of a measurement bin (the link count m).
    virtual std::size_t dimension() const noexcept = 0;

    // Bins pushed / bins flagged anomalous since construction (restore
    // continues both counters).
    virtual std::size_t processed() const noexcept = 0;
    virtual std::size_t alarm_count() const noexcept = 0;

    // Monotone version of the model snapshot the next push_bin will test
    // against: 0 is the bootstrap model, +1 per applied swap or fold.
    virtual std::uint64_t model_epoch() const noexcept = 0;

    // Blocks until in-flight background maintenance has finished
    // computing. A deferred snapshot still waits for its scheduled bin
    // boundary; drain() only guarantees no worker is touching this
    // detector afterwards (call before destroying the pool or moving the
    // detector).
    virtual void drain() = 0;

    // Serializes the complete detector state. Drains first (hence
    // non-const); the written bytes are independent of pool size.
    virtual void save(ckpt::writer& out) = 0;
};

}  // namespace netdiag
