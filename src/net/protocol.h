// Operation layer of the netdiag wire protocol (docs/WIRE_FORMAT.md).
// Each frame type below carries a payload built from the checkpoint
// primitives (measurement/stream_checkpoint.h) -- the same tagged
// little-endian codec stream records travel in, so the snapshot/restore
// payloads ARE checkpoint records and nothing re-encodes detector state
// at the network boundary.
//
// Request/response pairing is positional: a connection sends one request
// frame and reads one response frame (resp type = request type | 0x80,
// or resp_error). Decoders are strict -- every field present, no
// trailing bytes, all counts within protocol caps -- and report
// malformed payloads as wire_decode_error, which the serving side maps
// to wire_errc::malformed_payload. A decode NEVER applies side effects:
// the frontend decodes fully before touching the stream_server, so a
// payload that lies about its length can only produce a typed error,
// never a partially-applied batch.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "serve/stream_server.h"

namespace netdiag::net {

// Frame type bytes. Requests are 0x01..; the matching response sets the
// high bit; resp_error answers any request that failed.
enum class msg_type : std::uint8_t {
    req_ingest_batch = 0x01,
    req_flush = 0x02,
    req_snapshot = 0x03,  // plain snapshot, or detach (migration) via flag
    req_restore = 0x04,
    req_stats = 0x05,
    req_close = 0x06,
    req_shutdown = 0x07,

    resp_ingest_batch = 0x81,
    resp_flush = 0x82,
    resp_snapshot = 0x83,
    resp_restore = 0x84,
    resp_stats = 0x85,
    resp_close = 0x86,
    resp_shutdown = 0x87,
    resp_error = 0xFF,
};

// Typed failure codes carried by resp_error. The first block mirrors
// ingest_error one-to-one so a remote ingest surfaces exactly the error
// a local one would.
enum class wire_errc : std::uint64_t {
    unknown_stream = 1,
    width_mismatch = 2,
    inbox_full = 3,
    stream_closed = 4,
    malformed_payload = 5,  // request payload failed to decode
    unknown_op = 6,         // request frame type the server does not know
    server_error = 7,       // server-side exception (message has details)
};

const char* wire_errc_name(wire_errc e) noexcept;

// Thrown by the decode_* functions on malformed payloads (truncated,
// trailing bytes, counts beyond protocol caps, tag mismatches).
class wire_decode_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

// Decoded bins per ingest_batch request. A count above this is a
// protocol violation (split the batch), rejected before any allocation.
inline constexpr std::uint64_t k_max_ingest_bins = 1u << 16;

// --- op payload structs -----------------------------------------------------

struct ingest_batch_request {
    std::uint64_t stream = 0;
    std::vector<std::vector<double>> bins;
    friend bool operator==(const ingest_batch_request&,
                           const ingest_batch_request&) = default;
};

struct ingest_batch_response {
    std::uint64_t sequence = 0;  // first sequence of the accepted run
    std::uint64_t accepted = 0;
    friend bool operator==(const ingest_batch_response&,
                           const ingest_batch_response&) = default;
};

struct flush_request {
    std::uint64_t stream = 0;
    friend bool operator==(const flush_request&, const flush_request&) = default;
};

struct snapshot_request {
    std::uint64_t stream = 0;
    // false: snapshot, the stream keeps serving. true: detach -- the
    // record is the stream's final state and the server forgets it (the
    // migration primitive; stream_server::detach_stream).
    bool detach = false;
    friend bool operator==(const snapshot_request&, const snapshot_request&) = default;
};

// resp_snapshot and req_restore carry no payload struct: their payload
// IS the stream record (stream_server::snapshot_stream / restore_stream),
// self-identifying by its interchange checkpoint magic and bounded only
// by the frame layer's k_max_payload.

struct restore_response {
    std::uint64_t stream = 0;  // the id the restored stream serves under
    friend bool operator==(const restore_response&, const restore_response&) = default;
};

struct stats_request {
    std::uint64_t stream = 0;
    friend bool operator==(const stats_request&, const stats_request&) = default;
};

struct stats_response {
    std::uint64_t dimension = 0;
    std::uint64_t processed = 0;
    std::uint64_t alarms = 0;
    std::uint64_t epoch = 0;
    std::uint64_t accepted = 0;
    std::uint64_t applied = 0;
    std::uint64_t dropped = 0;
    std::uint64_t rejected = 0;
    std::uint64_t pending = 0;
    std::uint64_t next_sequence = 0;
    friend bool operator==(const stats_response&, const stats_response&) = default;
};

struct close_request {
    std::uint64_t stream = 0;
    friend bool operator==(const close_request&, const close_request&) = default;
};

struct error_response {
    wire_errc code = wire_errc::server_error;
    std::string message;
    friend bool operator==(const error_response&, const error_response&) = default;
};

// flush_response / close_response / shutdown_response have empty
// payloads; only the frame type carries information.

// --- codec ------------------------------------------------------------------

// Each encode returns the payload bytes for the matching frame type;
// each decode parses them back, throwing wire_decode_error on anything
// malformed (including trailing bytes -- payloads are exact).
std::string encode(const ingest_batch_request& x);
std::string encode(const ingest_batch_response& x);
std::string encode(const flush_request& x);
std::string encode(const snapshot_request& x);
std::string encode(const restore_response& x);
std::string encode(const stats_request& x);
std::string encode(const stats_response& x);
std::string encode(const close_request& x);
std::string encode(const error_response& x);

ingest_batch_request decode_ingest_batch_request(std::string_view payload);
ingest_batch_response decode_ingest_batch_response(std::string_view payload);
flush_request decode_flush_request(std::string_view payload);
snapshot_request decode_snapshot_request(std::string_view payload);
restore_response decode_restore_response(std::string_view payload);
stats_request decode_stats_request(std::string_view payload);
stats_response decode_stats_response(std::string_view payload);
close_request decode_close_request(std::string_view payload);
error_response decode_error_response(std::string_view payload);

// Throws wire_decode_error unless the payload is empty (the bodyless
// responses, and req_flush-style acks decode through their own types).
void decode_empty(std::string_view payload, const char* what);

}  // namespace netdiag::net
