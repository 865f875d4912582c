#include "net/protocol.h"

#include "measurement/stream_checkpoint.h"

namespace netdiag::net {

namespace {

// Runs a parse body against the payload, translating the ckpt codec's
// errors (truncation, tag mismatch, oversized counts) into the protocol's
// typed decode error, and rejecting trailing bytes: a payload is exact
// or it is malformed.
template <typename F>
auto parse(std::string_view payload, const char* what, F&& body) {
    ckpt::reader in(payload);
    try {
        auto result = body(in);
        if (in.remaining() != 0) {
            throw wire_decode_error(std::string(what) + ": trailing bytes after payload");
        }
        return result;
    } catch (const wire_decode_error&) {
        throw;
    } catch (const std::exception& e) {
        throw wire_decode_error(std::string(what) + ": " + e.what());
    }
}

}  // namespace

const char* wire_errc_name(wire_errc e) noexcept {
    switch (e) {
        case wire_errc::unknown_stream: return "unknown_stream";
        case wire_errc::width_mismatch: return "width_mismatch";
        case wire_errc::inbox_full: return "inbox_full";
        case wire_errc::stream_closed: return "stream_closed";
        case wire_errc::malformed_payload: return "malformed_payload";
        case wire_errc::unknown_op: return "unknown_op";
        case wire_errc::server_error: return "server_error";
    }
    return "unknown";
}

std::string encode(const ingest_batch_request& x) {
    ckpt::writer out;
    ckpt::write_u64(out, x.stream);
    ckpt::write_u64(out, x.bins.size());
    for (const std::vector<double>& bin : x.bins) ckpt::write_vec(out, bin);
    return out.release();
}

ingest_batch_request decode_ingest_batch_request(std::string_view payload) {
    return parse(payload, "ingest_batch_request", [](ckpt::reader& in) {
        ingest_batch_request x;
        x.stream = ckpt::read_u64(in);
        const std::uint64_t count = ckpt::read_u64(in);
        if (count > k_max_ingest_bins) {
            throw wire_decode_error("ingest_batch_request: bin count " +
                                    std::to_string(count) + " exceeds protocol cap");
        }
        x.bins.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) x.bins.push_back(ckpt::read_vec(in));
        return x;
    });
}

std::string encode(const ingest_batch_response& x) {
    ckpt::writer out;
    ckpt::write_u64(out, x.sequence);
    ckpt::write_u64(out, x.accepted);
    return out.release();
}

ingest_batch_response decode_ingest_batch_response(std::string_view payload) {
    return parse(payload, "ingest_batch_response", [](ckpt::reader& in) {
        ingest_batch_response x;
        x.sequence = ckpt::read_u64(in);
        x.accepted = ckpt::read_u64(in);
        return x;
    });
}

std::string encode(const flush_request& x) {
    ckpt::writer out;
    ckpt::write_u64(out, x.stream);
    return out.release();
}

flush_request decode_flush_request(std::string_view payload) {
    return parse(payload, "flush_request", [](ckpt::reader& in) {
        return flush_request{ckpt::read_u64(in)};
    });
}

std::string encode(const snapshot_request& x) {
    ckpt::writer out;
    ckpt::write_u64(out, x.stream);
    ckpt::write_flag(out, x.detach);
    return out.release();
}

snapshot_request decode_snapshot_request(std::string_view payload) {
    return parse(payload, "snapshot_request", [](ckpt::reader& in) {
        snapshot_request x;
        x.stream = ckpt::read_u64(in);
        x.detach = ckpt::read_flag(in);
        return x;
    });
}

std::string encode(const restore_response& x) {
    ckpt::writer out;
    ckpt::write_u64(out, x.stream);
    return out.release();
}

restore_response decode_restore_response(std::string_view payload) {
    return parse(payload, "restore_response", [](ckpt::reader& in) {
        return restore_response{ckpt::read_u64(in)};
    });
}

std::string encode(const stats_request& x) {
    ckpt::writer out;
    ckpt::write_u64(out, x.stream);
    return out.release();
}

stats_request decode_stats_request(std::string_view payload) {
    return parse(payload, "stats_request", [](ckpt::reader& in) {
        return stats_request{ckpt::read_u64(in)};
    });
}

std::string encode(const stats_response& x) {
    ckpt::writer out;
    ckpt::write_u64(out, x.dimension);
    ckpt::write_u64(out, x.processed);
    ckpt::write_u64(out, x.alarms);
    ckpt::write_u64(out, x.epoch);
    ckpt::write_u64(out, x.accepted);
    ckpt::write_u64(out, x.applied);
    ckpt::write_u64(out, x.dropped);
    ckpt::write_u64(out, x.rejected);
    ckpt::write_u64(out, x.pending);
    ckpt::write_u64(out, x.next_sequence);
    return out.release();
}

stats_response decode_stats_response(std::string_view payload) {
    return parse(payload, "stats_response", [](ckpt::reader& in) {
        stats_response x;
        x.dimension = ckpt::read_u64(in);
        x.processed = ckpt::read_u64(in);
        x.alarms = ckpt::read_u64(in);
        x.epoch = ckpt::read_u64(in);
        x.accepted = ckpt::read_u64(in);
        x.applied = ckpt::read_u64(in);
        x.dropped = ckpt::read_u64(in);
        x.rejected = ckpt::read_u64(in);
        x.pending = ckpt::read_u64(in);
        x.next_sequence = ckpt::read_u64(in);
        return x;
    });
}

std::string encode(const close_request& x) {
    ckpt::writer out;
    ckpt::write_u64(out, x.stream);
    return out.release();
}

close_request decode_close_request(std::string_view payload) {
    return parse(payload, "close_request", [](ckpt::reader& in) {
        return close_request{ckpt::read_u64(in)};
    });
}

std::string encode(const error_response& x) {
    ckpt::writer out;
    ckpt::write_u64(out, static_cast<std::uint64_t>(x.code));
    ckpt::write_string(out, x.message);
    return out.release();
}

error_response decode_error_response(std::string_view payload) {
    return parse(payload, "error_response", [](ckpt::reader& in) {
        error_response x;
        // Unknown codes pass through verbatim: a newer server's error is
        // still an error worth surfacing with its message intact.
        x.code = static_cast<wire_errc>(ckpt::read_u64(in));
        x.message = ckpt::read_string(in);
        return x;
    });
}

void decode_empty(std::string_view payload, const char* what) {
    if (!payload.empty()) {
        throw wire_decode_error(std::string(what) + ": expected empty payload, got " +
                                std::to_string(payload.size()) + " bytes");
    }
}

}  // namespace netdiag::net
