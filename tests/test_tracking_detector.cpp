#include <gtest/gtest.h>

#include <cmath>

#include "engine/thread_pool.h"
#include "measurement/dataset.h"
#include "subspace/detector.h"
#include "subspace/online.h"
#include "topology/builders.h"

namespace netdiag {
namespace {

class TrackingFixture : public ::testing::Test {
protected:
    void SetUp() override {
        dataset_config cfg;
        cfg.name = "tracking";
        cfg.gravity.total_mean_bytes_per_bin = 2e9;
        cfg.gravity.seed = 11;
        cfg.traffic.bins = 720;
        cfg.traffic.anomaly_count = 0;
        cfg.traffic.seed = 909;
        ds_ = std::make_unique<dataset>(build_dataset(make_abilene(), cfg));

        bootstrap_.assign(432, ds_->link_count());
        for (std::size_t r = 0; r < 432; ++r) bootstrap_.set_row(r, ds_->link_loads.row(r));
    }

    std::unique_ptr<dataset> ds_;
    matrix bootstrap_;
};

TEST_F(TrackingFixture, CleanStreamRaisesFewAlarms) {
    tracking_detector det(bootstrap_, 12);
    for (std::size_t t = 432; t < ds_->bin_count(); ++t) {
        det.push(ds_->link_loads.row(t));
    }
    EXPECT_EQ(det.processed(), ds_->bin_count() - 432);
    EXPECT_LE(det.alarm_count(), det.processed() / 15);
}

TEST_F(TrackingFixture, InjectedSpikeCaught) {
    tracking_detector det(bootstrap_, 12);
    const std::size_t flow = ds_->routing.flow_index(2, 8);
    bool hit = false;
    for (std::size_t t = 432; t < ds_->bin_count(); ++t) {
        vec y(ds_->link_loads.row(t).begin(), ds_->link_loads.row(t).end());
        if (t == 500) axpy(3e8, ds_->routing.a.column(flow), y);
        const detection_result r = det.push(y);
        if (t == 500) hit = r.anomalous;
    }
    EXPECT_TRUE(hit);
}

TEST_F(TrackingFixture, AgreesWithBatchDetectorOnBootstrapWindow) {
    // Compare tracking decisions against a full batch model fit on the
    // same bootstrap: the two should agree on the vast majority of bins.
    tracking_detector tracking(bootstrap_, 16);
    const subspace_model batch = subspace_model::fit(bootstrap_);
    const spe_detector batch_det(batch, 0.999);

    std::size_t agreement = 0;
    const std::size_t total = ds_->bin_count() - 432;
    for (std::size_t t = 432; t < ds_->bin_count(); ++t) {
        const bool a = tracking.test(ds_->link_loads.row(t)).anomalous;
        const bool b = batch_det.test(ds_->link_loads.row(t)).anomalous;
        if (a == b) ++agreement;
        tracking.push(ds_->link_loads.row(t));
    }
    EXPECT_GT(static_cast<double>(agreement) / static_cast<double>(total), 0.9);
}

TEST_F(TrackingFixture, ThresholdStaysPositiveAndFinite) {
    tracking_detector det(bootstrap_, 10);
    for (std::size_t t = 432; t < ds_->bin_count(); t += 7) {
        det.push(ds_->link_loads.row(t));
        EXPECT_GT(det.threshold(), 0.0);
        EXPECT_TRUE(std::isfinite(det.threshold()));
    }
}

TEST_F(TrackingFixture, NormalRankMatchesBatchSeparation) {
    // Regression for the double bootstrap fit: the constructor now fits
    // PCA once and reuses the separation rank for both the tracker's rank
    // floor and the normal subspace, so it must still agree with a fresh
    // batch separation.
    tracking_detector det(bootstrap_, 10);
    const subspace_model batch = subspace_model::fit(bootstrap_);
    EXPECT_EQ(det.normal_rank(), batch.normal_rank());
    EXPECT_GE(det.tracker().rank(), det.normal_rank() + 1);
}

TEST_F(TrackingFixture, PooledBootstrapFitMatchesSerial) {
    thread_pool pool(4);
    tracking_detector serial(bootstrap_, 10);
    tracking_detector pooled(bootstrap_, 10, 0.999, separation_config{}, &pool);
    EXPECT_EQ(pooled.normal_rank(), serial.normal_rank());
    EXPECT_EQ(pooled.threshold(), serial.threshold());
    for (std::size_t t = 432; t < 470; ++t) {
        const detection_result a = serial.push(ds_->link_loads.row(t));
        const detection_result b = pooled.push(ds_->link_loads.row(t));
        ASSERT_EQ(b.spe, a.spe) << "t=" << t;
        ASSERT_EQ(b.threshold, a.threshold) << "t=" << t;
        ASSERT_EQ(b.anomalous, a.anomalous) << "t=" << t;
    }
}

TEST_F(TrackingFixture, FullNormalRankNeverAlarms) {
    // normal_rank == dimension leaves no tracked residual tail: the
    // Q-statistic threshold must go to +infinity instead of 0 (which used
    // to flag every push on round-off SPE).
    separation_config sep;
    sep.fixed_rank = bootstrap_.cols();
    tracking_detector det(bootstrap_, bootstrap_.cols(), 0.999, sep);
    EXPECT_TRUE(std::isinf(det.threshold()));
    for (std::size_t t = 432; t < 460; ++t) {
        EXPECT_FALSE(det.push(ds_->link_loads.row(t)).anomalous) << "t=" << t;
    }
    EXPECT_EQ(det.alarm_count(), 0u);
}

TEST_F(TrackingFixture, TinyMaxRankIsRaisedAboveSeparationRank) {
    tracking_detector det(bootstrap_, 1);
    EXPECT_GT(det.tracker().rank(), det.normal_rank());
}

TEST_F(TrackingFixture, Validation) {
    EXPECT_THROW(tracking_detector(bootstrap_, 10, 0.0), std::invalid_argument);
    EXPECT_THROW(tracking_detector(bootstrap_, 10, 1.0), std::invalid_argument);
    EXPECT_THROW(tracking_detector(matrix(1, 4, 0.0), 3), std::invalid_argument);

    tracking_detector det(bootstrap_, 10);
    const vec bad(ds_->link_count() + 1, 0.0);
    EXPECT_THROW(det.push(bad), std::invalid_argument);
    EXPECT_THROW(det.test(bad), std::invalid_argument);
}

TEST_F(TrackingFixture, DeferredUpdatesAreRejected) {
    // Folds always run inline; the flag survives only as a parameter.
    thread_pool pool(2);
    EXPECT_THROW(tracking_detector(bootstrap_, 10, 0.999, {}, nullptr, true),
                 std::invalid_argument);
    EXPECT_THROW(tracking_detector(bootstrap_, 10, 0.999, {}, &pool, true),
                 std::invalid_argument);
    EXPECT_NO_THROW(tracking_detector(bootstrap_, 10, 0.999, {}, &pool, false));
}

TEST_F(TrackingFixture, PushUpdatesModelState) {
    tracking_detector det(bootstrap_, 10);
    const std::size_t before = det.tracker().sample_count();
    det.push(ds_->link_loads.row(432));
    EXPECT_EQ(det.tracker().sample_count(), before + 1);
}

}  // namespace
}  // namespace netdiag
