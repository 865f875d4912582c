// Wire-layer microbenchmarks: CRC32 throughput, frame encode/decode,
// checkpoint codec save/load, and end-to-end loopback ingest
// through a netdiag_frontend -- the costs the remote-collector
// deployment (docs/WIRE_FORMAT.md) adds on top of local serving.
//
// Flags: --quick (smaller shapes, for CI smoke).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "measurement/stream_checkpoint.h"
#include "net/frontend.h"
#include "net/remote_collector.h"
#include "net/wire.h"
#include "serve/stream_server.h"
#include "subspace/online.h"

namespace {

using namespace netdiag;

double elapsed_ms(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
}

template <typename Fn>
double time_best_ms(int iterations, Fn&& fn) {
    double best = 0.0;
    for (int i = 0; i < iterations; ++i) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        const double ms = elapsed_ms(start);
        if (i == 0 || ms < best) best = ms;
    }
    return best;
}

double mib_per_s(std::size_t bytes, double ms) {
    return static_cast<double>(bytes) / (1 << 20) / (ms / 1000.0);
}

matrix synthetic_bootstrap(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    matrix y(rows, cols, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            y(r, c) = 100.0 + static_cast<double>(rng() % 1000) / 10.0;
        }
    }
    return y;
}

}  // namespace

int main(int argc, char** argv) {
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    const int reps = quick ? 3 : 7;

    std::printf("== Wire protocol microbenchmarks%s ==\n\n", quick ? " (quick)" : "");

    // --- CRC32 -------------------------------------------------------------
    {
        const std::size_t size = quick ? (4u << 20) : (64u << 20);
        std::string payload(size, '\0');
        std::mt19937_64 rng(1);
        for (std::size_t i = 0; i < payload.size(); i += 8) {
            const std::uint64_t word = rng();
            std::memcpy(payload.data() + i, &word, 8);
        }
        volatile std::uint32_t sink = 0;
        const double ms = time_best_ms(reps, [&] { sink = net::crc32(payload); });
        std::printf("crc32                 %7.2f ms for %3zu MiB  (%8.1f MiB/s)\n", ms,
                    size >> 20, mib_per_s(size, ms));
    }

    // --- frame encode + incremental decode ---------------------------------
    {
        const std::size_t frames = quick ? 200 : 2000;
        const std::size_t payload_size = 16 * 1024;
        std::string stream_bytes;
        for (std::size_t i = 0; i < frames; ++i) {
            stream_bytes += net::encode_frame(
                net::frame{0x01, std::string(payload_size, static_cast<char>(i))});
        }
        const double ms = time_best_ms(reps, [&] {
            net::frame_decoder dec;
            net::frame f;
            std::size_t extracted = 0;
            // Feed in recv-sized chunks, as a connection would.
            for (std::size_t pos = 0; pos < stream_bytes.size(); pos += 1 << 14) {
                dec.feed(std::string_view(stream_bytes)
                             .substr(pos, std::min<std::size_t>(1 << 14,
                                                                stream_bytes.size() - pos)));
                while (dec.next(f) == net::frame_decoder::progress::frame_ready) ++extracted;
            }
            if (extracted != frames) std::abort();
        });
        std::printf("frame decode          %7.2f ms for %4zu frames x %zu KiB  (%8.1f MiB/s)\n",
                    ms, frames, payload_size >> 10, mib_per_s(stream_bytes.size(), ms));
    }

    // --- checkpoint codec: interchange save/load ----------------------------
    {
        tracking_detector det(synthetic_bootstrap(quick ? 64 : 256, quick ? 32 : 128, 7),
                              8);
        std::string bytes;
        const double save_ms = time_best_ms(reps, [&] {
            ckpt::writer out;
            det.save(out);
            bytes = out.release();
        });
        const double load_ms = time_best_ms(reps, [&] {
            ckpt::reader in(bytes);
            if (load_stream_detector(in) == nullptr) std::abort();
        });
        std::printf("checkpoint save/load  %7.2f / %7.2f ms for %6zu KiB  (%8.1f / %8.1f MiB/s)\n",
                    save_ms, load_ms, bytes.size() >> 10, mib_per_s(bytes.size(), save_ms),
                    mib_per_s(bytes.size(), load_ms));
    }

    // --- loopback ingest round trips ----------------------------------------
    {
        const std::size_t dim = 32;
        const std::size_t bins = quick ? 500 : 5000;
        stream_server server({.threads = 0});
        stream_open_config cfg;
        cfg.kind = stream_kind::tracking;
        cfg.bootstrap_y = synthetic_bootstrap(2 * dim, dim, 3);
        cfg.max_rank = 4;
        const stream_id id = server.open_stream(std::move(cfg));
        net::netdiag_frontend frontend(server);
        net::remote_collector collector(frontend.port());

        std::vector<double> bin(dim, 100.0);
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < bins; ++i) {
            bin[i % dim] = 100.0 + static_cast<double>(i % 17);
            if (!collector.ingest(id, bin).ok()) std::abort();
        }
        collector.flush(id);
        const double ms = elapsed_ms(start);
        std::printf("loopback ingest       %7.2f ms for %4zu bins of %zu doubles "
                    "(%8.1f bins/s, %6.1f us/rtt)\n",
                    ms, bins, dim, static_cast<double>(bins) / (ms / 1000.0),
                    1000.0 * ms / static_cast<double>(bins));
        frontend.stop();
    }

    std::printf("\nReading: framing overhead is 12 bytes + one CRC pass per frame; the\n"
                "checkpoint codec writes one tag byte per token and normalizes every\n"
                "word to little-endian, so records travel between hosts. Loopback rtt\n"
                "is dominated by the strict one-request-one-response discipline --\n"
                "batch ingest amortizes it.\n");
    return 0;
}
