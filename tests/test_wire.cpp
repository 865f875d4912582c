// The wire protocol's byte-level contracts: CRC known answers, framing
// round trips under every split, typed decode errors, and the seeded
// fuzz battery -- >= 10k deterministic mutations (truncations, bit
// flips, length lies, CRC and version corruption) across the frame
// layer, the op payload layer and the interchange record layer, none of
// which may crash, over-read (ASan/UBSan in CI) or partially apply.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "measurement/stream_checkpoint.h"
#include "net/frontend.h"
#include "net/protocol.h"
#include "serve/stream_server.h"
#include "subspace/online.h"

namespace netdiag {
namespace {

using net::frame;
using net::frame_decoder;
using net::frame_error;
using net::msg_type;

std::uint8_t type_byte(msg_type t) { return static_cast<std::uint8_t>(t); }

// ---------------------------------------------------------------------------
// CRC32.
// ---------------------------------------------------------------------------

TEST(Crc32, MatchesTheIeeeKnownAnswer) {
    // The check value every IEEE-802.3 CRC32 implementation agrees on.
    EXPECT_EQ(net::crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(net::crc32(""), 0x00000000u);
    EXPECT_EQ(net::crc32(std::string(1, '\0')), 0xD202EF8Du);
}

TEST(Crc32, DetectsEverySingleBitFlipInASmallMessage) {
    const std::string msg = "netdiag wire";
    const std::uint32_t good = net::crc32(msg);
    for (std::size_t byte = 0; byte < msg.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = msg;
            bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
            EXPECT_NE(net::crc32(bad), good) << "byte " << byte << " bit " << bit;
        }
    }
}

// ---------------------------------------------------------------------------
// Framing round trips and incremental decoding.
// ---------------------------------------------------------------------------

TEST(FrameDecoder, RoundTripsAcrossEverySplitPoint) {
    const frame original{type_byte(msg_type::req_stats), "some payload bytes"};
    const std::string bytes = net::encode_frame(original);

    // Every possible two-part split, plus byte-by-byte feeding: an
    // incremental decoder must be insensitive to how recv chunks the
    // stream.
    for (std::size_t split = 0; split <= bytes.size(); ++split) {
        frame_decoder dec;
        frame out;
        dec.feed(std::string_view(bytes).substr(0, split));
        if (split < bytes.size()) {
            EXPECT_EQ(dec.next(out), frame_decoder::progress::need_more) << split;
            dec.feed(std::string_view(bytes).substr(split));
        }
        ASSERT_EQ(dec.next(out), frame_decoder::progress::frame_ready) << split;
        EXPECT_EQ(out, original) << split;
        EXPECT_EQ(dec.next(out), frame_decoder::progress::need_more);
        EXPECT_EQ(dec.buffered(), 0u);
    }

    frame_decoder byte_by_byte;
    frame out;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
        byte_by_byte.feed(std::string_view(bytes).substr(i, 1));
        EXPECT_EQ(byte_by_byte.next(out), frame_decoder::progress::need_more) << i;
    }
    byte_by_byte.feed(std::string_view(bytes).substr(bytes.size() - 1, 1));
    ASSERT_EQ(byte_by_byte.next(out), frame_decoder::progress::frame_ready);
    EXPECT_EQ(out, original);
}

TEST(FrameDecoder, ExtractsBackToBackFramesFromOneFeed) {
    const frame a{type_byte(msg_type::req_flush), "aaa"};
    const frame b{type_byte(msg_type::resp_flush), ""};
    const frame c{type_byte(msg_type::req_stats), std::string(1000, 'x')};
    frame_decoder dec;
    dec.feed(net::encode_frame(a) + net::encode_frame(b) + net::encode_frame(c));
    frame out;
    ASSERT_EQ(dec.next(out), frame_decoder::progress::frame_ready);
    EXPECT_EQ(out, a);
    ASSERT_EQ(dec.next(out), frame_decoder::progress::frame_ready);
    EXPECT_EQ(out, b);
    ASSERT_EQ(dec.next(out), frame_decoder::progress::frame_ready);
    EXPECT_EQ(out, c);
    EXPECT_EQ(dec.next(out), frame_decoder::progress::need_more);
}

TEST(FrameDecoder, TypedErrorsAndPoisoning) {
    const std::string good = net::encode_frame({type_byte(msg_type::req_flush), "pay"});

    {  // bad magic, detected from the very first byte
        frame_decoder dec;
        dec.feed("XD");
        frame out;
        EXPECT_EQ(dec.next(out), frame_decoder::progress::error);
        EXPECT_EQ(dec.error(), frame_error::bad_magic);
        // Poisoned: new input is ignored, the error sticks.
        dec.feed(good);
        EXPECT_EQ(dec.next(out), frame_decoder::progress::error);
        EXPECT_EQ(dec.error(), frame_error::bad_magic);
    }
    {  // wrong version, detected from the third byte
        frame_decoder dec;
        std::string bytes = good;
        bytes[2] = static_cast<char>(net::k_wire_version + 1);
        dec.feed(bytes);
        frame out;
        EXPECT_EQ(dec.next(out), frame_decoder::progress::error);
        EXPECT_EQ(dec.error(), frame_error::bad_version);
    }
    {  // length beyond the cap: rejected before any payload allocation
        frame_decoder dec;
        std::string bytes = good;
        bytes[4] = static_cast<char>(0xFF);
        bytes[5] = static_cast<char>(0xFF);
        bytes[6] = static_cast<char>(0xFF);
        bytes[7] = static_cast<char>(0x7F);
        dec.feed(bytes);
        frame out;
        EXPECT_EQ(dec.next(out), frame_decoder::progress::error);
        EXPECT_EQ(dec.error(), frame_error::bad_length);
    }
    {  // payload corruption lands on the CRC
        frame_decoder dec;
        std::string bytes = good;
        bytes[net::k_wire_header_bytes] ^= 0x01;
        dec.feed(bytes);
        frame out;
        EXPECT_EQ(dec.next(out), frame_decoder::progress::error);
        EXPECT_EQ(dec.error(), frame_error::bad_crc);
    }
}

TEST(FrameEncode, RecordPayloadsRoundTripAtBoundarySizes) {
    // resp_snapshot and req_restore frames carry a stream record as their
    // whole payload: empty, one byte and a record-sized 3 MiB blob.
    for (const std::size_t record_bytes : {std::size_t{0}, std::size_t{1},
                                           std::size_t{3 << 20}}) {
        const std::string record(record_bytes, '\x5A');
        for (const msg_type type : {msg_type::resp_snapshot, msg_type::req_restore}) {
            const frame original{type_byte(type), record};
            const std::string bytes = net::encode_frame(type_byte(type), record);
            EXPECT_EQ(bytes, net::encode_frame(original)) << record_bytes;
            frame_decoder dec;
            dec.feed(bytes);
            frame out;
            ASSERT_EQ(dec.next(out), frame_decoder::progress::frame_ready) << record_bytes;
            EXPECT_EQ(out, original) << record_bytes;
        }
    }
}

TEST(FrameEncode, RejectsOversizedPayloads) {
    frame f{type_byte(msg_type::req_restore), {}};
    f.payload.resize(net::k_max_payload + 1);
    EXPECT_THROW((void)net::encode_frame(f), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Op payload round trips: decode(encode(x)) == x for every op type at
// the boundary sizes (0 bins, 1 bin, max batch; empty messages).
// ---------------------------------------------------------------------------

std::vector<double> pattern_bin(std::size_t width, std::uint64_t salt) {
    std::vector<double> bin(width);
    for (std::size_t i = 0; i < width; ++i) {
        bin[i] = static_cast<double>(salt * 1000 + i) * 0.5 - 3.25;
    }
    return bin;
}

TEST(ProtocolCodec, IngestBatchRoundTripsAtBoundarySizes) {
    for (const std::size_t bins : {std::size_t{0}, std::size_t{1},
                                   static_cast<std::size_t>(net::k_max_ingest_bins)}) {
        net::ingest_batch_request x;
        x.stream = 0xFEEDFACE01ull;
        // Max-batch uses width-1 bins to keep the frame small; the width
        // boundary (0) rides along on the one-bin case.
        const std::size_t width = bins == 1 ? 0 : 1;
        for (std::size_t i = 0; i < bins; ++i) x.bins.push_back(pattern_bin(width, i));
        EXPECT_EQ(net::decode_ingest_batch_request(net::encode(x)), x) << bins;
    }
    net::ingest_batch_request typical;
    typical.stream = 7;
    for (std::size_t i = 0; i < 16; ++i) typical.bins.push_back(pattern_bin(41, i));
    EXPECT_EQ(net::decode_ingest_batch_request(net::encode(typical)), typical);

    EXPECT_THROW(
        (void)net::decode_ingest_batch_request(net::encode(net::ingest_batch_request{
            1, std::vector<std::vector<double>>(net::k_max_ingest_bins + 1)})),
        net::wire_decode_error);
}

TEST(ProtocolCodec, EveryOtherOpRoundTrips) {
    const net::ingest_batch_response ibr{0xFFFFFFFFFFFFFFFFull, 42};
    EXPECT_EQ(net::decode_ingest_batch_response(net::encode(ibr)), ibr);

    const net::flush_request fr{123};
    EXPECT_EQ(net::decode_flush_request(net::encode(fr)), fr);

    for (const bool detach : {false, true}) {
        const net::snapshot_request sr{9, detach};
        EXPECT_EQ(net::decode_snapshot_request(net::encode(sr)), sr);
    }

    const net::restore_response rresp{88};
    EXPECT_EQ(net::decode_restore_response(net::encode(rresp)), rresp);

    const net::stats_request streq{5};
    EXPECT_EQ(net::decode_stats_request(net::encode(streq)), streq);

    const net::stats_response stresp{6, 100, 3, 2, 120, 100, 1, 4, 19, 120};
    EXPECT_EQ(net::decode_stats_response(net::encode(stresp)), stresp);

    const net::close_request cr{31};
    EXPECT_EQ(net::decode_close_request(net::encode(cr)), cr);

    const net::error_response er{net::wire_errc::width_mismatch, "bin width 7 != 6"};
    EXPECT_EQ(net::decode_error_response(net::encode(er)), er);
    const net::error_response empty_msg{net::wire_errc::unknown_op, ""};
    EXPECT_EQ(net::decode_error_response(net::encode(empty_msg)), empty_msg);
}

TEST(ProtocolCodec, TrailingAndTruncatedPayloadsAreTypedErrors) {
    const std::string good = net::encode(net::flush_request{1});
    EXPECT_THROW((void)net::decode_flush_request(good + "x"), net::wire_decode_error);
    EXPECT_THROW((void)net::decode_flush_request(std::string_view(good).substr(0, 4)),
                 net::wire_decode_error);
    EXPECT_THROW((void)net::decode_stats_response(good), net::wire_decode_error);
    EXPECT_NO_THROW(net::decode_empty("", "x"));
    EXPECT_THROW(net::decode_empty("y", "x"), net::wire_decode_error);
}

// ---------------------------------------------------------------------------
// Fuzz battery. All corpora are seeded mt19937_64: failures reproduce.
// ---------------------------------------------------------------------------

// One mutation of `bytes` drawn from the attack classes the satellite
// names: truncation, bit flips, length lies, CRC corruption, version
// corruption, duplication and garbage prefixes.
std::string mutate(const std::string& bytes, std::mt19937_64& rng) {
    std::string out = bytes;
    switch (rng() % 7) {
        case 0:  // truncate anywhere
            out.resize(out.empty() ? 0 : rng() % out.size());
            break;
        case 1: {  // flip 1..8 random bits
            if (out.empty()) break;
            const std::size_t flips = 1 + rng() % 8;
            for (std::size_t f = 0; f < flips; ++f) {
                out[rng() % out.size()] ^= static_cast<char>(1 << (rng() % 8));
            }
            break;
        }
        case 2: {  // lie in the length field (frame offset 4..7)
            if (out.size() < 8) break;
            for (std::size_t i = 4; i < 8; ++i) {
                out[i] = static_cast<char>(rng());
            }
            break;
        }
        case 3: {  // corrupt the CRC trailer
            if (out.size() < 4) break;
            out[out.size() - 1 - rng() % 4] ^= static_cast<char>(1 + rng() % 255);
            break;
        }
        case 4:  // wrong version byte
            if (out.size() >= 3) out[2] = static_cast<char>(rng());
            break;
        case 5:  // duplicate a chunk of itself (length lies of the other kind)
            out += out.substr(out.size() / 2);
            break;
        default:  // garbage prefix
            out.insert(0, std::string(1 + rng() % 5, static_cast<char>(rng())));
            break;
    }
    return out;
}

// Drives one mutated byte string through a fresh decoder in random-size
// chunks, then through the payload decoders when a frame survives.
// Returns the number of frames extracted (for corpus sanity stats).
std::size_t exercise_decoder(const std::string& bytes, std::mt19937_64& rng) {
    frame_decoder dec;
    std::size_t offset = 0;
    std::size_t frames = 0;
    frame out;
    for (;;) {
        const frame_decoder::progress p = dec.next(out);
        if (p == frame_decoder::progress::error) {
            EXPECT_NE(dec.error(), frame_error::none);
            return frames;
        }
        if (p == frame_decoder::progress::frame_ready) {
            ++frames;
            // A frame that survived CRC may still carry a malformed
            // payload; every decoder must reject it cleanly (typed
            // error), never crash or over-read.
            try {
                switch (static_cast<msg_type>(out.type)) {
                    case msg_type::req_ingest_batch:
                        (void)net::decode_ingest_batch_request(out.payload);
                        break;
                    case msg_type::req_flush:
                        (void)net::decode_flush_request(out.payload);
                        break;
                    case msg_type::req_snapshot:
                        (void)net::decode_snapshot_request(out.payload);
                        break;
                    case msg_type::req_stats:
                        (void)net::decode_stats_request(out.payload);
                        break;
                    case msg_type::resp_stats:
                        (void)net::decode_stats_response(out.payload);
                        break;
                    case msg_type::resp_error:
                        (void)net::decode_error_response(out.payload);
                        break;
                    default:
                        break;
                }
            } catch (const net::wire_decode_error&) {
                // the clean typed outcome
            }
            continue;
        }
        if (offset >= bytes.size()) return frames;  // starved: need_more forever is fine
        const std::size_t chunk = std::min<std::size_t>(1 + rng() % 96, bytes.size() - offset);
        dec.feed(std::string_view(bytes).substr(offset, chunk));
        offset += chunk;
    }
}

TEST(WireFuzz, SixThousandFrameMutationsNeverCrashTheDecoder) {
    std::vector<std::string> corpus;
    {
        net::ingest_batch_request ib;
        ib.stream = 3;
        for (std::size_t i = 0; i < 5; ++i) ib.bins.push_back(pattern_bin(6, i));
        corpus.push_back(net::encode_frame(type_byte(msg_type::req_ingest_batch),
                                           net::encode(ib)));
        corpus.push_back(net::encode_frame(type_byte(msg_type::req_flush),
                                           net::encode(net::flush_request{3})));
        corpus.push_back(net::encode_frame(type_byte(msg_type::req_snapshot),
                                           net::encode(net::snapshot_request{3, true})));
        corpus.push_back(net::encode_frame(type_byte(msg_type::req_stats),
                                           net::encode(net::stats_request{3})));
        corpus.push_back(net::encode_frame(
            type_byte(msg_type::resp_stats),
            net::encode(net::stats_response{6, 10, 1, 1, 12, 10, 0, 0, 2, 12})));
        corpus.push_back(net::encode_frame(
            type_byte(msg_type::resp_error),
            net::encode(net::error_response{net::wire_errc::server_error, "boom"})));
        corpus.push_back(net::encode_frame(type_byte(msg_type::req_shutdown), ""));
    }

    std::mt19937_64 rng(0xC0FFEE);
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < 6000; ++i) {
        const std::string mutated = mutate(corpus[i % corpus.size()], rng);
        survivors += exercise_decoder(mutated, rng);
    }
    // Sanity: some mutations (e.g. payload-only duplication after a clean
    // frame) must still yield frames, or the harness tested nothing.
    EXPECT_GT(survivors, 0u);

    // And unmutated corpus entries must all decode (the mutator, not the
    // encoder, is what breaks frames).
    for (const std::string& bytes : corpus) {
        frame_decoder dec;
        dec.feed(bytes);
        frame out;
        EXPECT_EQ(dec.next(out), frame_decoder::progress::frame_ready);
    }
}

// End-to-end no-partial-apply: mutated ingest frames against a live
// stream_server through handle_request. Whenever the response is a
// malformed_payload error, not one counter may have moved -- a payload
// that lies about its bin count cannot half-apply a batch.
TEST(WireFuzz, ThreeThousandMutatedRequestsNeverPartiallyApply) {
    matrix boot(12, 6, 0.0);
    for (std::size_t r = 0; r < boot.rows(); ++r) {
        for (std::size_t c = 0; c < boot.cols(); ++c) {
            boot(r, c) = 100.0 + static_cast<double>(r * 31 + c * 7 % 17);
        }
    }
    stream_server server({.threads = 0});
    stream_open_config cfg;
    cfg.kind = stream_kind::tracking;
    cfg.bootstrap_y = boot;
    cfg.max_rank = 2;
    const stream_id id = server.open_stream(std::move(cfg));

    net::ingest_batch_request ib;
    ib.stream = id;
    for (std::size_t i = 0; i < 4; ++i) ib.bins.push_back(pattern_bin(6, 100 + i));
    const std::string payload = net::encode(ib);

    std::mt19937_64 rng(0xBADF00D);
    std::size_t malformed = 0;
    std::size_t applied_ok = 0;
    for (std::size_t i = 0; i < 3000; ++i) {
        // Mutate the PAYLOAD (the frame layer already has its own fuzz):
        // handle_request sees exactly what a CRC-valid frame would carry.
        std::string mutated = payload;
        switch (rng() % 3) {
            case 0:
                mutated.resize(mutated.empty() ? 0 : rng() % mutated.size());
                break;
            case 1:
                if (!mutated.empty()) {
                    mutated[rng() % mutated.size()] ^=
                        static_cast<char>(1 << (rng() % 8));
                }
                break;
            default:
                mutated += static_cast<char>(rng());
                break;
        }
        const ingest_stats before = server.ingest_statistics(id);
        const frame response = net::handle_request(
            server, frame{type_byte(msg_type::req_ingest_batch), mutated});
        const ingest_stats after = server.ingest_statistics(id);

        ASSERT_EQ(after.accepted, after.applied + after.dropped + after.pending) << i;
        if (static_cast<msg_type>(response.type) == msg_type::resp_error) {
            const net::error_response err = net::decode_error_response(response.payload);
            if (err.code == net::wire_errc::malformed_payload) {
                ++malformed;
                EXPECT_EQ(after.accepted, before.accepted) << i;
                EXPECT_EQ(after.applied, before.applied) << i;
                EXPECT_EQ(after.rejected, before.rejected) << i;
                EXPECT_EQ(after.dropped, before.dropped) << i;
            }
        } else {
            ASSERT_EQ(static_cast<msg_type>(response.type), msg_type::resp_ingest_batch)
                << i;
            ++applied_ok;
        }
    }
    // The corpus must have exercised both outcomes to mean anything.
    EXPECT_GT(malformed, 100u);
    EXPECT_GT(applied_ok, 0u);
}

// Interchange record mutations through the checkpoint loader: the other
// half of the payload surface (req_restore bodies ARE records). The
// loader must throw ckpt::format_error on every malformed record --
// never crash, never allocate from a lying header (the remaining-bytes
// validation), never succeed-and-desync (tag stream violations throw).
TEST(WireFuzz, TwoThousandMutatedInterchangeRecordsNeverCrashTheLoader) {
    matrix boot(10, 5, 0.0);
    for (std::size_t r = 0; r < boot.rows(); ++r) {
        for (std::size_t c = 0; c < boot.cols(); ++c) {
            boot(r, c) = 50.0 + static_cast<double>((r * 13 + c * 3) % 23);
        }
    }
    tracking_detector det(boot, 2);
    ckpt::writer rec;
    det.save(rec);
    const std::string record = rec.release();

    // The unmutated record must load (otherwise the fuzz tests nothing).
    {
        ckpt::reader in(record);
        EXPECT_NO_THROW((void)load_stream_detector(in));
    }

    std::mt19937_64 rng(0x5EED);
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < 2000; ++i) {
        const std::string mutated = mutate(record, rng);
        ckpt::reader in(mutated);
        try {
            (void)load_stream_detector(in);
        } catch (const ckpt::format_error&) {
            ++rejected;  // the clean typed outcome
        }
    }
    EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace netdiag
