#include "measurement/stream_checkpoint.h"

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "subspace/online.h"
#include "subspace/stream_detector.h"

namespace netdiag {

namespace ckpt {

namespace {

constexpr std::uint64_t k_interchange_magic = 0x3149434453444eull;  // "NDSDCI1" packed
// Version 3 is the only version written in the tagged little-endian
// encoding, so it is also the only version that loads
// (docs/CHECKPOINT_FORMAT.md has the version history).
constexpr std::uint64_t k_format_version = 3;

// One tag byte per primitive, so a schema-free walker (the wire fuzzer)
// can traverse any record and a desynchronized reader fails on the next
// tag instead of reinterpreting garbage.
constexpr char k_tag_u64 = 'U';
constexpr char k_tag_f64 = 'F';
constexpr char k_tag_string = 'S';
constexpr char k_tag_vec = 'V';
constexpr char k_tag_matrix = 'M';

constexpr bool k_host_little = std::endian::native == std::endian::little;

[[noreturn]] void fail(const std::string& what) {
    throw format_error("stream_checkpoint: " + what);
}

// Shift-based little-endian byte layout: the same code path runs on a
// host of either byte order, so the encoder has no untested big-endian
// branch.
void put_le64(char* b, std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
}

std::uint64_t get_le64(const char* b) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i])) << (8 * i);
    }
    return v;
}

// A tag byte followed by one little-endian word.
void write_tagged(writer& out, char tag, std::uint64_t value) {
    char b[9];
    b[0] = tag;
    put_le64(b + 1, value);
    out.append(b, sizeof b);
}

void expect_tag(reader& in, char tag) {
    const char found = in.take(1)[0];
    if (found != tag) {
        fail(std::string("tag mismatch (expected '") + tag + "', found byte " +
             std::to_string(found) + ")");
    }
}

std::uint64_t read_word(reader& in) { return get_le64(in.take(8).data()); }

std::uint64_t read_tagged(reader& in, char tag) {
    expect_tag(in, tag);
    return read_word(in);
}

// Validates a claimed payload size against the bytes actually left
// BEFORE any allocation, so a corrupt or hostile header claiming 2^60
// bins fails with a clear error instead of an attempted giant
// allocation.
void check_payload_fits(const reader& in, std::uint64_t claimed_bytes, const char* what) {
    if (claimed_bytes > in.remaining()) {
        fail(std::string(what) + " length exceeds remaining input (" +
             std::to_string(claimed_bytes) + " bytes claimed, " +
             std::to_string(in.remaining()) + " left): truncated or corrupt header");
    }
}

// Bulk double payloads: each IEEE bit pattern is a little-endian word.
// On a little-endian host the in-memory layout already matches, so the
// bulk path is one copy; a big-endian host swaps every word.
void write_doubles(writer& out, const double* data, std::size_t count) {
    if (count == 0) return;
    if constexpr (k_host_little) {
        out.append(data, count * sizeof(double));
    } else {
        for (std::size_t i = 0; i < count; ++i) {
            char b[8];
            put_le64(b, std::bit_cast<std::uint64_t>(data[i]));
            out.append(b, sizeof b);
        }
    }
}

void read_doubles(reader& in, double* data, std::size_t count) {
    if (count == 0) return;
    const std::string_view bytes = in.take(count * sizeof(double));
    if constexpr (k_host_little) {
        std::memcpy(data, bytes.data(), bytes.size());
    } else {
        for (std::size_t i = 0; i < count; ++i) {
            data[i] = std::bit_cast<double>(get_le64(bytes.data() + 8 * i));
        }
    }
}

}  // namespace

std::string_view reader::take(std::size_t count) {
    if (count > remaining()) fail("truncated input");
    const std::string_view out = bytes_.substr(pos_, count);
    pos_ += count;
    return out;
}

void write_u64(writer& out, std::uint64_t value) { write_tagged(out, k_tag_u64, value); }

void write_f64(writer& out, double value) {
    // Exact bit pattern: the replay guarantee depends on it.
    write_tagged(out, k_tag_f64, std::bit_cast<std::uint64_t>(value));
}

void write_flag(writer& out, bool value) { write_u64(out, value ? 1 : 0); }

void write_string(writer& out, const std::string& value) {
    write_tagged(out, k_tag_string, value.size());
    out.append(value.data(), value.size());
}

void write_vec(writer& out, const std::vector<double>& value) {
    write_tagged(out, k_tag_vec, value.size());
    write_doubles(out, value.data(), value.size());
}

void write_matrix(writer& out, const matrix& value) {
    write_tagged(out, k_tag_matrix, value.rows());
    char cols[8];
    put_le64(cols, value.cols());
    out.append(cols, sizeof cols);
    write_doubles(out, value.data(), value.size());
}

std::uint64_t read_u64(reader& in) { return read_tagged(in, k_tag_u64); }

double read_f64(reader& in) { return std::bit_cast<double>(read_tagged(in, k_tag_f64)); }

bool read_flag(reader& in) {
    const std::uint64_t value = read_u64(in);
    if (value > 1) fail("malformed flag");
    return value == 1;
}

std::string read_string(reader& in) {
    const std::uint64_t size = read_tagged(in, k_tag_string);
    if (size > (1u << 20)) fail("string too large");
    check_payload_fits(in, size, "string");
    return std::string(in.take(size));
}

std::vector<double> read_vec(reader& in) {
    const std::uint64_t size = read_tagged(in, k_tag_vec);
    if (size > (1u << 28)) fail("vector too large");
    check_payload_fits(in, size * sizeof(double), "vector");
    std::vector<double> value(size, 0.0);
    read_doubles(in, value.data(), size);
    return value;
}

matrix read_matrix(reader& in) {
    const std::uint64_t rows = read_tagged(in, k_tag_matrix);
    const std::uint64_t cols = read_word(in);
    if (rows > (1u << 24) || cols > (1u << 24) || (rows != 0 && cols > (1u << 28) / rows)) {
        fail("matrix too large");
    }
    check_payload_fits(in, rows * cols * sizeof(double), "matrix");
    matrix value(rows, cols, 0.0);
    read_doubles(in, value.data(), value.size());
    return value;
}

void write_header(writer& out, const std::string& type_tag) {
    // The magic is untagged: it is what identifies a checkpoint record.
    char magic[8];
    put_le64(magic, k_interchange_magic);
    out.append(magic, sizeof magic);
    write_u64(out, k_format_version);
    write_string(out, type_tag);
}

std::string read_header(reader& in) {
    if (read_word(in) != k_interchange_magic) {
        fail("bad magic: not a little-endian interchange checkpoint (records in the "
             "retired native encoding and byte-swapped records from a writer of the "
             "other endianness are not readable; see docs/CHECKPOINT_FORMAT.md)");
    }
    const std::uint64_t version = read_u64(in);
    if (version != k_format_version) {
        fail("unsupported format version " + std::to_string(version) + " (only version " +
             std::to_string(k_format_version) + " loads)");
    }
    return read_string(in);
}

void expect_header(reader& in, const std::string& type_tag) {
    const std::string tag = read_header(in);
    if (tag != type_tag) fail("expected " + type_tag + ", found " + tag);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (!in || ec) throw std::runtime_error("stream_checkpoint: cannot open " + path);
    std::string bytes(size, '\0');
    if (!in.read(bytes.data(), static_cast<std::streamsize>(size))) {
        throw std::runtime_error("stream_checkpoint: read failed for " + path);
    }
    return bytes;
}

void write_file(const std::string& path, std::string_view bytes) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("stream_checkpoint: cannot open " + path);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) throw std::runtime_error("stream_checkpoint: write failed for " + path);
}

}  // namespace ckpt

void save_stream_detector(stream_detector& detector, const std::string& path) {
    ckpt::writer out;
    detector.save(out);
    ckpt::write_file(path, out.bytes());
}

std::unique_ptr<stream_detector> load_stream_detector(const std::string& path,
                                                      thread_pool* pool) {
    const std::string bytes = ckpt::read_file(path);
    ckpt::reader in(bytes);
    return load_stream_detector(in, pool);
}

std::unique_ptr<stream_detector> load_stream_detector(ckpt::reader& in, thread_pool* pool) {
    // Peek the tag on a copy of the cursor: restore() reads its own
    // header from the record start.
    ckpt::reader peek = in;
    const std::string tag = ckpt::read_header(peek);
    if (tag == "streaming_diagnoser") {
        return std::make_unique<streaming_diagnoser>(streaming_diagnoser::restore(in, pool));
    }
    if (tag == "tracking_detector") {
        return std::make_unique<tracking_detector>(tracking_detector::restore(in));
    }
    if (tag == "incremental_pca_tracker") {
        return std::make_unique<incremental_pca_tracker>(incremental_pca_tracker::restore(in));
    }
    throw ckpt::format_error("load_stream_detector: unknown detector tag " + tag);
}

}  // namespace netdiag
