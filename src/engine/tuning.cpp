#include "engine/tuning.h"

#include <cctype>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "engine/simd.h"
#include "engine/thread_pool.h"

namespace netdiag {

tuning& global_tuning() noexcept {
    static tuning instance;
    return instance;
}

bool parallel_hardware_ok() noexcept {
    return thread_pool::hardware_threads() >= global_tuning().parallel_min_hardware;
}

namespace {

// Single source of truth for the profile knob names: save_profile emits
// them and load_profile accepts exactly this set, so a profile written by
// one build of bench_autotune either round-trips or fails loudly.
struct knob_field {
    const char* name;
    std::size_t tuning::*member;
};

constexpr knob_field k_knob_fields[] = {
    {"link_block", &tuning::link_block},
    {"parallel_min_links", &tuning::parallel_min_links},
    {"spe_series_min_work", &tuning::spe_series_min_work},
    {"pca_projection_min_work", &tuning::pca_projection_min_work},
    {"covariance_row_block_min", &tuning::covariance_row_block_min},
    {"covariance_max_blocks", &tuning::covariance_max_blocks},
    {"ql_parallel_min_work", &tuning::ql_parallel_min_work},
    {"jacobi_parallel_min_dim", &tuning::jacobi_parallel_min_dim},
    {"svd_row_block", &tuning::svd_row_block},
    {"svd_parallel_min_rows", &tuning::svd_parallel_min_rows},
    {"diagnose_grain", &tuning::diagnose_grain},
    {"parallel_min_hardware", &tuning::parallel_min_hardware},
    {"ingest_inbox_capacity", &tuning::ingest_inbox_capacity},
    {"ingest_drain_burst", &tuning::ingest_drain_burst},
    {"role_wait_spin_yields", &tuning::role_wait_spin_yields},
    {"role_wait_sleep_us", &tuning::role_wait_sleep_us},
};

constexpr const char* k_format_tag = "netdiag-tuning-profile-v1";

[[noreturn]] void bad_profile(const std::string& why) {
    throw std::runtime_error("tuning::load_profile: " + why);
}

}  // namespace

void tuning::save_profile(std::ostream& out, std::size_t hardware_concurrency) const {
    if (hardware_concurrency == 0) hardware_concurrency = thread_pool::hardware_threads();
    out << "{\n";
    out << "  \"format\": \"" << k_format_tag << "\",\n";
    out << "  \"host\": {\n";
    out << "    \"hardware_concurrency\": " << hardware_concurrency << ",\n";
    out << "    \"isa\": \"" << simd::isa_name() << "\"\n";
    out << "  },\n";
    out << "  \"tuning\": {\n";
    const std::size_t n = sizeof(k_knob_fields) / sizeof(k_knob_fields[0]);
    for (std::size_t i = 0; i < n; ++i) {
        out << "    \"" << k_knob_fields[i].name << "\": " << this->*k_knob_fields[i].member
            << (i + 1 < n ? ",\n" : "\n");
    }
    out << "  }\n";
    out << "}\n";
}

void tuning::save_profile(const std::string& path, std::size_t hardware_concurrency) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("tuning::save_profile: cannot open " + path);
    save_profile(out, hardware_concurrency);
    if (!out) throw std::runtime_error("tuning::save_profile: write failed for " + path);
}

// Minimal parser for the profile documents save_profile emits (flat string
// and unsigned-integer values only — see docs/TUNING.md#profile-format).
// Not a general JSON reader, by design: unknown knobs and malformed input
// throw rather than being silently ignored.
tuning tuning::load_profile(std::istream& in) {
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    std::size_t pos = 0;
    const auto skip_ws = [&] {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
            ++pos;
        }
    };
    const auto expect = [&](char c) {
        skip_ws();
        if (pos >= text.size() || text[pos] != c) {
            bad_profile(std::string("expected '") + c + "' at offset " + std::to_string(pos));
        }
        ++pos;
    };
    const auto parse_string = [&]() -> std::string {
        expect('"');
        std::string s;
        while (pos < text.size() && text[pos] != '"') s.push_back(text[pos++]);
        expect('"');
        return s;
    };
    const auto parse_value_string = [&]() -> std::string {
        skip_ws();
        if (pos < text.size() && text[pos] == '"') return parse_string();
        std::string s;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) != 0)) {
            s.push_back(text[pos++]);
        }
        if (s.empty()) bad_profile("expected a value at offset " + std::to_string(pos));
        return s;
    };

    tuning result;  // defaults; the profile overrides every knob it lists
    bool saw_format = false;
    bool saw_tuning = false;

    expect('{');
    while (true) {
        skip_ws();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            break;
        }
        const std::string key = parse_string();
        expect(':');
        if (key == "format") {
            const std::string value = parse_value_string();
            if (value != k_format_tag) bad_profile("unsupported format \"" + value + "\"");
            saw_format = true;
        } else if (key == "host") {
            // Informational metadata: parse and discard.
            expect('{');
            while (true) {
                skip_ws();
                if (pos < text.size() && text[pos] == '}') {
                    ++pos;
                    break;
                }
                parse_string();
                expect(':');
                parse_value_string();
                skip_ws();
                if (pos < text.size() && text[pos] == ',') ++pos;
            }
        } else if (key == "tuning") {
            saw_tuning = true;
            expect('{');
            while (true) {
                skip_ws();
                if (pos < text.size() && text[pos] == '}') {
                    ++pos;
                    break;
                }
                const std::string knob = parse_string();
                expect(':');
                const std::string value = parse_value_string();
                bool known = false;
                for (const knob_field& f : k_knob_fields) {
                    if (knob == f.name) {
                        try {
                            result.*f.member = std::stoull(value);
                        } catch (const std::exception&) {
                            bad_profile("knob \"" + knob + "\" has non-integer value \"" +
                                        value + "\"");
                        }
                        known = true;
                        break;
                    }
                }
                if (!known) bad_profile("unknown knob \"" + knob + "\"");
                skip_ws();
                if (pos < text.size() && text[pos] == ',') ++pos;
            }
        } else {
            bad_profile("unknown top-level key \"" + key + "\"");
        }
        skip_ws();
        if (pos < text.size() && text[pos] == ',') ++pos;
    }

    if (!saw_format) bad_profile("missing \"format\" tag");
    if (!saw_tuning) bad_profile("missing \"tuning\" object");
    return result;
}

tuning tuning::load_profile(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("tuning::load_profile: cannot open " + path);
    return load_profile(in);
}

}  // namespace netdiag
