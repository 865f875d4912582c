#include "net/frontend.h"

#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "net/protocol.h"

namespace netdiag::net {

namespace {

frame error_frame(wire_errc code, std::string message) {
    return frame{static_cast<std::uint8_t>(msg_type::resp_error),
                 encode(error_response{code, std::move(message)})};
}

// The first wire_errc block mirrors ingest_error so a remote ingest
// surfaces exactly the error a local one would.
wire_errc to_wire_errc(ingest_error e) {
    switch (e) {
        case ingest_error::ok: break;
        case ingest_error::unknown_stream: return wire_errc::unknown_stream;
        case ingest_error::width_mismatch: return wire_errc::width_mismatch;
        case ingest_error::inbox_full: return wire_errc::inbox_full;
        case ingest_error::stream_closed: return wire_errc::stream_closed;
    }
    return wire_errc::server_error;
}

frame dispatch(stream_server& server, const frame& request) {
    switch (static_cast<msg_type>(request.type)) {
        case msg_type::req_ingest_batch: {
            const ingest_batch_request req = decode_ingest_batch_request(request.payload);
            std::vector<std::span<const double>> spans;
            spans.reserve(req.bins.size());
            for (const std::vector<double>& bin : req.bins) spans.emplace_back(bin);
            const ingest_result r = server.ingest_batch(req.stream, spans);
            if (!r.ok()) {
                return error_frame(to_wire_errc(r.error),
                                   "ingest_batch on stream " + std::to_string(req.stream));
            }
            return frame{static_cast<std::uint8_t>(msg_type::resp_ingest_batch),
                         encode(ingest_batch_response{r.sequence, r.accepted})};
        }
        case msg_type::req_flush: {
            const flush_request req = decode_flush_request(request.payload);
            server.flush_stream(req.stream);
            return frame{static_cast<std::uint8_t>(msg_type::resp_flush), {}};
        }
        case msg_type::req_snapshot: {
            const snapshot_request req = decode_snapshot_request(request.payload);
            std::string bytes = req.detach ? server.detach_stream(req.stream)
                                           : server.snapshot_stream(req.stream);
            if (bytes.size() > k_max_payload) {
                return error_frame(wire_errc::server_error,
                                   "stream record of " + std::to_string(bytes.size()) +
                                       " bytes exceeds the frame payload cap");
            }
            return frame{static_cast<std::uint8_t>(msg_type::resp_snapshot), std::move(bytes)};
        }
        case msg_type::req_restore: {
            try {
                const stream_id id = server.restore_stream(std::string_view(request.payload));
                return frame{static_cast<std::uint8_t>(msg_type::resp_restore),
                             encode(restore_response{id})};
            } catch (const std::runtime_error& e) {
                // A malformed record (ckpt::format_error) keeps the
                // strict-decode contract the other ops follow instead of
                // a generic server_error.
                return error_frame(wire_errc::malformed_payload, e.what());
            }
        }
        case msg_type::req_stats: {
            const stats_request req = decode_stats_request(request.payload);
            const stream_server::stream_stats ss = server.stats(req.stream);
            const ingest_stats is = server.ingest_statistics(req.stream);
            stats_response resp;
            resp.dimension = ss.dimension;
            resp.processed = ss.processed;
            resp.alarms = ss.alarms;
            resp.epoch = ss.epoch;
            resp.accepted = is.accepted;
            resp.applied = is.applied;
            resp.dropped = is.dropped;
            resp.rejected = is.rejected;
            resp.pending = is.pending;
            resp.next_sequence = is.next_sequence;
            return frame{static_cast<std::uint8_t>(msg_type::resp_stats), encode(resp)};
        }
        case msg_type::req_close: {
            const close_request req = decode_close_request(request.payload);
            server.close_stream(req.stream);
            return frame{static_cast<std::uint8_t>(msg_type::resp_close), {}};
        }
        case msg_type::req_shutdown: {
            decode_empty(request.payload, "shutdown_request");
            return frame{static_cast<std::uint8_t>(msg_type::resp_shutdown), {}};
        }
        default:
            return error_frame(wire_errc::unknown_op,
                               "unknown frame type " + std::to_string(request.type));
    }
}

}  // namespace

frame handle_request(stream_server& server, const frame& request) {
    try {
        return dispatch(server, request);
    } catch (const wire_decode_error& e) {
        return error_frame(wire_errc::malformed_payload, e.what());
    } catch (const std::invalid_argument& e) {
        // The server's unknown-id / validation signal on the ops that
        // throw instead of returning codes (flush, snapshot, close).
        return error_frame(wire_errc::unknown_stream, e.what());
    } catch (const std::exception& e) {
        return error_frame(wire_errc::server_error, e.what());
    }
}

// Shared between the accept loop (which registers it) and the
// connection thread (which reads it) -- and shutdown_both from stop()
// is what unblocks a thread parked in recv_some. `done` flips once the
// connection thread has closed the socket and is about to exit, making
// the worker safe for the reaper to join-and-erase.
struct netdiag_frontend::connection {
    tcp_socket sock;
    std::atomic<bool> done{false};
};

netdiag_frontend::netdiag_frontend(stream_server& server, std::uint16_t port)
    : server_(server), listener_(port) {
    accept_thread_ = std::thread([this] { accept_loop(); });
}

netdiag_frontend::~netdiag_frontend() { stop(); }

void netdiag_frontend::accept_loop() {
    for (;;) {
        tcp_socket sock = listener_.accept();
        if (!sock.valid()) return;  // listener closed: shutting down
        reap_finished();
        auto conn = std::make_shared<connection>();
        conn->sock = std::move(sock);
        sync::mutex_lock lock(mu_);
        // Checked under mu_: request_stop sets the flag before sweeping
        // workers_ under this lock, so either we register in time for
        // the sweep or we observe the flag and drop the socket -- a
        // connection can never slip in unswept and park in recv forever.
        if (stopping_.load(std::memory_order_acquire)) return;
        workers_.push_back(worker{conn, std::thread([this, conn] { serve_connection(conn); })});
    }
}

void netdiag_frontend::reap_finished() {
    std::vector<std::thread> finished;
    {
        sync::mutex_lock lock(mu_);
        auto it = workers_.begin();
        while (it != workers_.end()) {
            if (it->conn->done.load(std::memory_order_acquire)) {
                finished.push_back(std::move(it->thread));
                it = workers_.erase(it);
            } else {
                ++it;
            }
        }
    }
    // `done` is the last thing a connection thread sets, so these joins
    // complete immediately; they happen outside mu_ regardless.
    for (std::thread& t : finished) {
        if (t.joinable()) t.join();
    }
}

void netdiag_frontend::serve_connection(const std::shared_ptr<connection>& conn) {
    try {
        serve_frames(*conn);
    } catch (...) {
        // A dead connection (send/recv failure) retires its thread; the
        // embedded server is unaffected.
    }
    // Every exit releases the fd right away -- the reaper only collects
    // the thread handle later. Closing under mu_ keeps it ordered with
    // request_stop's shutdown sweep, so the sweep never touches a
    // recycled fd.
    {
        sync::mutex_lock lock(mu_);
        conn->sock.close();
    }
    conn->done.store(true, std::memory_order_release);
}

void netdiag_frontend::serve_frames(connection& conn) {
    frame_decoder decoder;
    frame request;
    char buf[1 << 14];
    for (;;) {
        const frame_decoder::progress p = decoder.next(request);
        if (p == frame_decoder::progress::frame_ready) {
            frame response = handle_request(server_, request);
            const std::string bytes = encode_frame(response);
            conn.sock.send_all(bytes.data(), bytes.size());
            if (static_cast<msg_type>(request.type) == msg_type::req_shutdown &&
                static_cast<msg_type>(response.type) == msg_type::resp_shutdown) {
                request_stop();
                return;
            }
            continue;
        }
        if (p == frame_decoder::progress::error) {
            // Best-effort typed report, then drop the connection --
            // framing has no resynchronization point.
            const std::string bytes = encode_frame(error_frame(
                wire_errc::malformed_payload,
                std::string("frame error: ") + frame_error_name(decoder.error())));
            conn.sock.send_all(bytes.data(), bytes.size());
            return;
        }
        const std::size_t n = conn.sock.recv_some(buf, sizeof buf);
        if (n == 0) return;  // peer closed cleanly
        decoder.feed(std::string_view(buf, n));
    }
}

void netdiag_frontend::request_stop() {
    if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
    listener_.close();  // unblocks accept()
    sync::mutex_lock lock(mu_);
    for (const worker& w : workers_) {
        w.conn->sock.shutdown_both();  // unblocks recv_some()
    }
}

void netdiag_frontend::stop() {
    request_stop();
    if (accept_thread_.joinable()) accept_thread_.join();
    // With the accept loop joined, no new workers can appear; swap the
    // list out so joining happens outside the lock.
    std::vector<worker> workers;
    {
        sync::mutex_lock lock(mu_);
        workers.swap(workers_);
    }
    for (worker& w : workers) {
        if (w.thread.joinable()) w.thread.join();
    }
}

}  // namespace netdiag::net
