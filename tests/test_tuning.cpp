#include "engine/tuning.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace netdiag {
namespace {

// ---------------------------------------------------------------------------
// scoped_tuning: the RAII seam every test and bench sweep relies on.
// ---------------------------------------------------------------------------

TEST(ScopedTuning, RestoresEveryKnobOnExit) {
    const tuning before = global_tuning();
    {
        const scoped_tuning guard;
        global_tuning().link_block = 7;
        global_tuning().svd_row_block = 99;
        global_tuning().parallel_min_hardware = 1;
        global_tuning().diagnose_grain = 3;
    }
    EXPECT_EQ(global_tuning(), before);
}

TEST(ScopedTuning, NestedGuardsUnwindInOrder) {
    const tuning before = global_tuning();
    {
        const scoped_tuning outer;
        global_tuning().link_block = 11;
        {
            const scoped_tuning inner;
            global_tuning().link_block = 13;
        }
        EXPECT_EQ(global_tuning().link_block, 11u);
    }
    EXPECT_EQ(global_tuning(), before);
}

TEST(Tuning, HardwareFloorGatesThePool) {
    const scoped_tuning guard;
    global_tuning().parallel_min_hardware = 1;
    EXPECT_TRUE(parallel_hardware_ok());  // every host has >= 1 hardware thread
    global_tuning().parallel_min_hardware = 1u << 20;
    EXPECT_FALSE(parallel_hardware_ok());  // no host has a million
}

// ---------------------------------------------------------------------------
// Profile round trip: save_profile -> load_profile -> global_tuning, under
// a scoped_tuning guard that must restore the pre-test state afterwards.
// ---------------------------------------------------------------------------

TEST(TuningProfile, SaveLoadRoundTripsEveryKnob) {
    tuning custom;
    custom.link_block = 128;
    custom.parallel_min_links = 2048;
    custom.spe_series_min_work = 12345;
    custom.pca_projection_min_work = 54321;
    custom.covariance_row_block_min = 96;
    custom.covariance_max_blocks = 17;
    custom.ql_parallel_min_work = 777;
    custom.jacobi_parallel_min_dim = 333;
    custom.svd_row_block = 1024;
    custom.svd_parallel_min_rows = 4096;
    custom.diagnose_grain = 8;
    custom.parallel_min_hardware = 4;
    custom.ingest_inbox_capacity = 512;
    custom.ingest_drain_burst = 32;

    std::stringstream buf;
    custom.save_profile(buf, 16);
    const tuning loaded = tuning::load_profile(buf);
    EXPECT_EQ(loaded, custom);
}

TEST(TuningProfile, SavedDocumentCarriesFormatAndHostMetadata) {
    std::stringstream buf;
    tuning{}.save_profile(buf, 12);
    const std::string doc = buf.str();
    EXPECT_NE(doc.find("\"format\": \"netdiag-tuning-profile-v1\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"hardware_concurrency\": 12"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"isa\": \""), std::string::npos) << doc;
}

TEST(TuningProfile, LoadedProfileAppliesToGlobalTuningAndRestores) {
    const tuning before = global_tuning();
    {
        const scoped_tuning guard;
        tuning custom;
        custom.svd_row_block = 2048;
        custom.diagnose_grain = 64;
        std::stringstream buf;
        custom.save_profile(buf);
        global_tuning() = tuning::load_profile(buf);
        EXPECT_EQ(global_tuning().svd_row_block, 2048u);
        EXPECT_EQ(global_tuning().diagnose_grain, 64u);
    }
    EXPECT_EQ(global_tuning(), before);
}

TEST(TuningProfile, PartialProfileKeepsDefaultsForUnlistedKnobs) {
    // load_profile = defaults overridden by exactly the listed knobs.
    std::stringstream buf;
    buf << R"({
  "format": "netdiag-tuning-profile-v1",
  "tuning": { "svd_row_block": 64 }
})";
    const tuning loaded = tuning::load_profile(buf);
    EXPECT_EQ(loaded.svd_row_block, 64u);
    tuning defaults;
    defaults.svd_row_block = 64;
    EXPECT_EQ(loaded, defaults);
}

TEST(TuningProfile, HostMetadataIsInformationalOnly) {
    // A profile generated on a different host still loads: the host block
    // is parsed and discarded.
    std::stringstream buf;
    buf << R"({
  "format": "netdiag-tuning-profile-v1",
  "host": { "hardware_concurrency": 256, "isa": "neon" },
  "tuning": { "link_block": 512 }
})";
    EXPECT_EQ(tuning::load_profile(buf).link_block, 512u);
}

// ---------------------------------------------------------------------------
// Error cases: the documented contract is fail-loudly, never
// silently-ignore.
// ---------------------------------------------------------------------------

TEST(TuningProfile, UnknownKnobThrows) {
    std::stringstream buf;
    buf << R"({
  "format": "netdiag-tuning-profile-v1",
  "tuning": { "no_such_knob": 5 }
})";
    EXPECT_THROW(tuning::load_profile(buf), std::runtime_error);
}

TEST(TuningProfile, WrongFormatTagThrows) {
    std::stringstream buf;
    buf << R"({ "format": "netdiag-tuning-profile-v2", "tuning": {} })";
    EXPECT_THROW(tuning::load_profile(buf), std::runtime_error);
}

TEST(TuningProfile, MissingFormatThrows) {
    std::stringstream buf;
    buf << R"({ "tuning": { "link_block": 256 } })";
    EXPECT_THROW(tuning::load_profile(buf), std::runtime_error);
}

TEST(TuningProfile, MissingTuningObjectThrows) {
    std::stringstream buf;
    buf << R"({ "format": "netdiag-tuning-profile-v1" })";
    EXPECT_THROW(tuning::load_profile(buf), std::runtime_error);
}

TEST(TuningProfile, NonIntegerKnobValueThrows) {
    std::stringstream buf;
    buf << R"({
  "format": "netdiag-tuning-profile-v1",
  "tuning": { "link_block": "lots" }
})";
    EXPECT_THROW(tuning::load_profile(buf), std::runtime_error);
}

TEST(TuningProfile, UnknownTopLevelKeyThrows) {
    std::stringstream buf;
    buf << R"({
  "format": "netdiag-tuning-profile-v1",
  "surprise": 1,
  "tuning": {}
})";
    EXPECT_THROW(tuning::load_profile(buf), std::runtime_error);
}

TEST(TuningProfile, MalformedJsonThrows) {
    std::stringstream buf;
    buf << "not json at all";
    EXPECT_THROW(tuning::load_profile(buf), std::runtime_error);
}

TEST(TuningProfile, MissingFileThrows) {
    EXPECT_THROW(tuning::load_profile(std::string("/nonexistent/dir/profile.json")),
                 std::runtime_error);
}

}  // namespace
}  // namespace netdiag
