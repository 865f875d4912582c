// Checkpoint/replay persistence for the streaming subsystem.
//
// A checkpoint is the complete state of a stream_detector -- current
// model, maintenance buffers (window or tracked SVD), pending refit,
// counters, epoch -- written as a flat binary record: magic + format
// version + a type tag, then the detector's fields. Doubles are stored as
// their exact bit patterns, so a restored stream replays the remaining
// detection sequence bit-for-bit.
//
// There is one encoding, the portable interchange encoding
// (docs/CHECKPOINT_FORMAT.md): every primitive is little-endian whatever
// the host and is prefixed with a one-byte type tag. Records therefore
// move between hosts of any byte order, a schema-free walker (the wire
// fuzzer) can traverse any record, and a desynchronized reader fails on
// the next tag instead of reinterpreting garbage. The same codec builds
// the payloads of the length-prefixed wire protocol in src/net/
// (docs/WIRE_FORMAT.md).
//
// The codec works on memory: ckpt::writer appends to a byte string and
// ckpt::reader is a cursor over a byte view, so every length a record
// claims is checked against the bytes actually left before anything is
// allocated. The primitives are exposed so the detectors' save()/restore()
// implementations (subspace/online.cpp), the serving front-end and tests
// share one codec.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "linalg/matrix.h"

namespace netdiag {

class stream_detector;
class thread_pool;

namespace ckpt {

// The record encoding. It has a single value and nothing branches on it;
// the type remains because stream_server::snapshot_stream's stream
// overload still takes it, and the end-to-end benchmark harness calls
// that overload with encoding::interchange.
enum class encoding { interchange };

// Truncated, malformed or self-contradictory checkpoint input. Every
// reader below, every detector restore() and the stream_server's record
// loader throw it.
class format_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

// Appends encoded primitives to a byte string it owns.
class writer {
public:
    void append(const void* data, std::size_t bytes) {
        bytes_.append(static_cast<const char*>(data), bytes);
    }
    const std::string& bytes() const noexcept { return bytes_; }
    std::string release() noexcept { return std::move(bytes_); }

private:
    std::string bytes_;
};

// A cursor over encoded bytes held elsewhere (the view must outlive the
// reader). Copyable: a copy is an independent cursor, which is how a
// loader peeks a record's header without consuming it.
class reader {
public:
    explicit reader(std::string_view bytes) noexcept : bytes_(bytes) {}
    std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
    // Consumes the next `count` bytes; throws format_error when fewer
    // are left.
    std::string_view take(std::size_t count);

private:
    std::string_view bytes_;
    std::size_t pos_ = 0;
};

// Readers throw format_error on truncated or malformed input. Readers of
// strings, vectors and matrices validate the claimed length against
// reader::remaining() before allocating, so a corrupt header claiming
// 2^60 bins fails with a clear error instead of attempting the
// allocation.
void write_u64(writer& out, std::uint64_t value);
void write_f64(writer& out, double value);
void write_flag(writer& out, bool value);
void write_string(writer& out, const std::string& value);
void write_vec(writer& out, const std::vector<double>& value);
void write_matrix(writer& out, const matrix& value);

std::uint64_t read_u64(reader& in);
double read_f64(reader& in);
bool read_flag(reader& in);
std::string read_string(reader& in);
std::vector<double> read_vec(reader& in);
matrix read_matrix(reader& in);

// Magic + format version (3) + the record type tag.
void write_header(writer& out, const std::string& type_tag);

// Reads and validates the header -- the magic word, then format version
// 3, the only version that loads -- and returns the type tag. Version-2
// and older records predate the single encoding (every one was written
// in the retired host-endian encoding); docs/CHECKPOINT_FORMAT.md lists
// what loads.
std::string read_header(reader& in);
// Reads the header and throws unless the tag matches (restore guards).
void expect_header(reader& in, const std::string& type_tag);

// Whole-file I/O for checkpoint files. Throw std::runtime_error naming
// the path when the file cannot be opened, read or written.
std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view bytes);

}  // namespace ckpt

// Saves any stream_detector to a file (draining in-flight background work
// first, so the bytes are independent of pool size and timing). Throws
// std::runtime_error on I/O failure.
void save_stream_detector(stream_detector& detector, const std::string& path);

// Loads a checkpoint written by save_stream_detector, dispatching on the
// type tag to the matching detector's restore(). The pool is runtime
// wiring, not checkpoint state: the restored detector uses the one given
// here. Throws std::runtime_error on I/O failure and ckpt::format_error
// on an unknown tag or malformed content.
std::unique_ptr<stream_detector> load_stream_detector(const std::string& path,
                                                      thread_pool* pool = nullptr);

// Same, reading a detector record at the reader's position -- the seam
// for container records that nest a detector record after their own
// fields (the stream_server's per-stream records).
std::unique_ptr<stream_detector> load_stream_detector(ckpt::reader& in,
                                                      thread_pool* pool = nullptr);

}  // namespace netdiag
