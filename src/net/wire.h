// Length-prefixed frame layer of the netdiag wire protocol
// (docs/WIRE_FORMAT.md). A frame is the unit a connection exchanges:
//
//   offset  size  field
//        0     2  magic "ND"
//        2     1  protocol version (k_wire_version)
//        3     1  frame type (the protocol op; net/protocol.h)
//        4     4  payload length, little-endian u32, <= k_max_payload
//        8     n  payload (interchange checkpoint primitives)
//      8+n     4  CRC32 (IEEE) over bytes [0, 8+n), little-endian
//
// Every multi-byte field is little-endian, matching the interchange
// checkpoint encoding the payloads are built from. The decoder is
// incremental: feed() it whatever a socket read returned -- any split,
// byte by byte if need be -- and next() hands back complete frames. A
// malformed stream (bad magic, unsupported version, oversized length,
// checksum mismatch) produces a typed frame_error exactly once and
// poisons the decoder; framing offers no resynchronization, so the
// connection is the recovery unit. The decoder never reads past the
// bytes it was fed and never allocates from the length field before the
// header has validated against k_max_payload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace netdiag::net {

// Bumped when the frame layout changes incompatibly; a decoder rejects
// every other version (bad_version) rather than guessing.
inline constexpr std::uint8_t k_wire_version = 1;

inline constexpr char k_wire_magic0 = 'N';
inline constexpr char k_wire_magic1 = 'D';

inline constexpr std::size_t k_wire_header_bytes = 8;
inline constexpr std::size_t k_wire_trailer_bytes = 4;

// Ceiling on one frame's payload. Generous enough for a detached
// stream record (detector state + inbox residue); a length field above
// it is a protocol violation, not a big frame.
inline constexpr std::uint32_t k_max_payload = 1u << 26;  // 64 MiB

// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320), the ubiquitous
// variant: crc32("123456789") == 0xCBF43926, which tests/test_wire.cpp
// pins as a known-answer check.
std::uint32_t crc32(std::string_view bytes) noexcept;

// One decoded frame: the type byte plus the raw payload bytes (the
// protocol layer gives them meaning).
struct frame {
    std::uint8_t type = 0;
    std::string payload;

    friend bool operator==(const frame&, const frame&) = default;
};

// Serializes a frame: header, payload, CRC trailer. Throws
// std::invalid_argument when the payload exceeds k_max_payload.
std::string encode_frame(std::uint8_t type, std::string_view payload);
std::string encode_frame(const frame& f);

enum class frame_error {
    none = 0,
    bad_magic,    // stream does not start with "ND"
    bad_version,  // version byte is not k_wire_version
    bad_length,   // declared payload length exceeds k_max_payload
    bad_crc,      // checksum mismatch (bit flips, length lies)
};

const char* frame_error_name(frame_error e) noexcept;

// Incremental decoder. Typical loop:
//
//   decoder.feed(bytes_from_socket);
//   frame f;
//   while (decoder.next(f) == frame_decoder::progress::frame_ready) handle(f);
//   if (decoder.error() != frame_error::none) drop_connection();
//
// Magic and version are validated as soon as their bytes arrive, so a
// garbage stream errors within 3 bytes instead of stalling on a bogus
// length. After an error the decoder is poisoned: feed() ignores input
// and next() keeps returning progress::error.
class frame_decoder {
public:
    enum class progress {
        need_more,    // no complete frame buffered yet
        frame_ready,  // one frame extracted into `out`
        error,        // malformed stream; see error()
    };

    void feed(std::string_view bytes);
    progress next(frame& out);
    frame_error error() const noexcept { return error_; }
    // Bytes buffered but not yet consumed by a returned frame.
    std::size_t buffered() const noexcept { return buffer_.size() - consumed_; }

private:
    progress fail(frame_error e) noexcept;

    std::string buffer_;
    std::size_t consumed_ = 0;  // prefix of buffer_ already handed out
    frame_error error_ = frame_error::none;
};

}  // namespace netdiag::net
