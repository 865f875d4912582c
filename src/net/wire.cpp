#include "net/wire.h"

#include <array>
#include <stdexcept>

namespace netdiag::net {

namespace {

// Reflected-polynomial table, built once. constexpr so the known-answer
// test pins the table itself, not just the driver loop.
constexpr std::array<std::uint32_t, 256> make_crc_table() {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
        }
        table[n] = c;
    }
    return table;
}

constexpr std::array<std::uint32_t, 256> k_crc_table = make_crc_table();

void put_le32(std::string& out, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
}

std::uint32_t get_le32(const char* b) noexcept {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[i])) << (8 * i);
    }
    return v;
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) noexcept {
    std::uint32_t c = 0xFFFFFFFFu;
    for (const char ch : bytes) {
        c = k_crc_table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFu;
}

std::string encode_frame(std::uint8_t type, std::string_view payload) {
    if (payload.size() > k_max_payload) {
        throw std::invalid_argument("encode_frame: payload of " +
                                    std::to_string(payload.size()) +
                                    " bytes exceeds k_max_payload");
    }
    std::string out;
    out.reserve(k_wire_header_bytes + payload.size() + k_wire_trailer_bytes);
    out.push_back(k_wire_magic0);
    out.push_back(k_wire_magic1);
    out.push_back(static_cast<char>(k_wire_version));
    out.push_back(static_cast<char>(type));
    put_le32(out, static_cast<std::uint32_t>(payload.size()));
    out += payload;
    put_le32(out, crc32(out));
    return out;
}

std::string encode_frame(const frame& f) { return encode_frame(f.type, f.payload); }

const char* frame_error_name(frame_error e) noexcept {
    switch (e) {
        case frame_error::none: return "none";
        case frame_error::bad_magic: return "bad_magic";
        case frame_error::bad_version: return "bad_version";
        case frame_error::bad_length: return "bad_length";
        case frame_error::bad_crc: return "bad_crc";
    }
    return "unknown";
}

void frame_decoder::feed(std::string_view bytes) {
    if (error_ != frame_error::none) return;  // poisoned
    // Drop the consumed prefix before growing; the buffer never holds
    // more than one partial frame plus what feed just delivered.
    if (consumed_ > 0) {
        buffer_.erase(0, consumed_);
        consumed_ = 0;
    }
    buffer_.append(bytes.data(), bytes.size());
}

frame_decoder::progress frame_decoder::fail(frame_error e) noexcept {
    error_ = e;
    buffer_.clear();
    consumed_ = 0;
    return progress::error;
}

frame_decoder::progress frame_decoder::next(frame& out) {
    if (error_ != frame_error::none) return progress::error;
    const std::size_t have = buffer_.size() - consumed_;
    const char* base = buffer_.data() + consumed_;

    // Validate the fixed bytes as soon as they arrive: a garbage stream
    // errors immediately instead of waiting for a full bogus header.
    if (have >= 1 && base[0] != k_wire_magic0) return fail(frame_error::bad_magic);
    if (have >= 2 && base[1] != k_wire_magic1) return fail(frame_error::bad_magic);
    if (have >= 3 && static_cast<std::uint8_t>(base[2]) != k_wire_version) {
        return fail(frame_error::bad_version);
    }
    if (have < k_wire_header_bytes) return progress::need_more;

    const std::uint32_t payload_len = get_le32(base + 4);
    if (payload_len > k_max_payload) return fail(frame_error::bad_length);
    const std::size_t total = k_wire_header_bytes + payload_len + k_wire_trailer_bytes;
    if (have < total) return progress::need_more;

    const std::uint32_t stored = get_le32(base + k_wire_header_bytes + payload_len);
    const std::uint32_t computed =
        crc32(std::string_view(base, k_wire_header_bytes + payload_len));
    if (stored != computed) return fail(frame_error::bad_crc);

    out.type = static_cast<std::uint8_t>(base[3]);
    out.payload.assign(base + k_wire_header_bytes, payload_len);
    consumed_ += total;
    return progress::frame_ready;
}

}  // namespace netdiag::net
