// Host autotuner for the engine/tuning.h knobs: sweeps the block widths on
// representative kernel workloads, probes the parallel gates for their
// serial-vs-pooled crossover on this machine, and writes the winners as a
// netdiag-tuning-profile-v1 JSON document (format: docs/TUNING.md) that
// tuning::load_profile() can apply in another process.
//
// Block widths are part of the numerical contract (changing one moves
// results within rounding), so the tuner only *reports* them — applying a
// profile is the caller's explicit choice. Gate knobs are pure scheduling
// and safe to apply anywhere.
//
// Flags: --quick            small shapes and single-iteration timings (CI)
//        --json=PATH        output path (default tuning_profile.json)
//        --threads=N        pool size for the gate probes (default: all)
//
// Gate probes need real concurrency: on a host below the
// parallel_min_hardware floor they are skipped and the defaults recorded.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/batch_detector.h"
#include "engine/simd.h"
#include "engine/thread_pool.h"
#include "engine/tuning.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "linalg/svd.h"
#include "measurement/presets.h"
#include "serve/stream_server.h"
#include "subspace/diagnoser.h"
#include "subspace/model.h"

namespace {

using namespace netdiag;

// A gate set to this value never engages on the measured host.
constexpr std::size_t k_gate_never = std::size_t{1} << 30;

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

matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = dist(rng);
    return m;
}

matrix random_symmetric(std::size_t n, std::uint64_t seed) {
    matrix a = random_matrix(n, n, seed);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) a(j, i) = a(i, j);
    }
    return a;
}

// Synthetic subspace model over m links: random axes are fine for timing
// the projection kernels (orthonormality does not change the flop count).
subspace_model synthetic_model(std::size_t m, std::size_t rank) {
    pca_model pm;
    pm.principal_axes = random_matrix(m, m, 97 + m);
    pm.axis_variance.assign(m, 1.0);
    pm.column_means.assign(m, 0.0);
    pm.sample_count = 2;
    return {std::move(pm), rank};
}

struct knob_report {
    std::string name;
    std::size_t chosen = 0;
    std::size_t fallback = 0;  // the default it replaces
    bool measured = false;     // false: kept the default (probe skipped)
    std::string detail;
};

void print_report(const knob_report& r) {
    if (r.measured) {
        std::printf("  %-28s %10zu  (default %zu; %s)\n", r.name.c_str(), r.chosen, r.fallback,
                    r.detail.c_str());
    } else {
        std::printf("  %-28s %10zu  (default kept; %s)\n", r.name.c_str(), r.chosen,
                    r.detail.c_str());
    }
}

// Argmin sweep for a block-width knob: run `workload` once per candidate
// with the knob set, keep the fastest.
template <typename Workload>
knob_report sweep_block_width(const char* name, std::size_t tuning::*member,
                              const std::vector<std::size_t>& candidates, int iterations,
                              Workload&& workload) {
    knob_report report;
    report.name = name;
    report.fallback = tuning{}.*member;
    report.measured = true;

    double best_ms = 0.0;
    for (const std::size_t value : candidates) {
        const scoped_tuning guard;
        global_tuning().*member = value;
        const double ms = time_best_ms(iterations, workload);
        if (report.chosen == 0 || ms < best_ms) {
            best_ms = ms;
            report.chosen = value;
        }
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "best of %zu widths, %.3f ms", candidates.size(), best_ms);
    report.detail = buf;
    return report;
}

// Crossover probe for a gate knob: sizes ascend; the gate becomes the work
// metric of the smallest size whose pooled run beats serial, or "never".
// `measure` runs the workload at a size with or without the pool and
// returns best-of-N milliseconds; `work_of` maps a size to the gate's
// units (rows, links, n, work product, ...).
template <typename Measure, typename WorkOf>
knob_report probe_gate(const char* name, std::size_t tuning::*member,
                       const std::vector<std::size_t>& sizes, thread_pool& pool,
                       Measure&& measure, WorkOf&& work_of) {
    knob_report report;
    report.name = name;
    report.fallback = tuning{}.*member;
    report.measured = true;
    report.chosen = k_gate_never;
    report.detail = "pooled never beat serial; gate parked at 2^30";

    for (const std::size_t size : sizes) {
        const double serial_ms = measure(size, nullptr);
        const double pooled_ms = measure(size, &pool);
        if (pooled_ms < serial_ms) {
            report.chosen = work_of(size);
            char buf[96];
            std::snprintf(buf, sizeof buf, "crossover at size %zu: %.3f ms pooled vs %.3f ms",
                          size, pooled_ms, serial_ms);
            report.detail = buf;
            break;
        }
    }
    return report;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    std::string json_path = "tuning_profile.json";
    std::size_t pool_threads = 0;  // 0: thread_pool picks hardware_threads()

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
            json_path = argv[i] + 7;
        } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
            pool_threads = static_cast<std::size_t>(std::stoull(argv[i] + 10));
        } else {
            std::fprintf(stderr, "bench_autotune: unrecognized flag %s\n", argv[i]);
            return 1;
        }
    }

    const int iterations = quick ? 1 : 3;
    const std::size_t hardware = thread_pool::hardware_threads();
    std::printf("netdiag autotuner: isa=%s, hardware threads=%zu%s\n\n", simd::isa_name(),
                hardware, quick ? " (quick)" : "");

    std::vector<knob_report> reports;

    // --- Block widths (numerical contract; reported, serially measured) ---
    {
        const matrix y = random_matrix(quick ? 1024 : 4096, quick ? 64 : 128, 11);
        reports.push_back(sweep_block_width(
            "covariance_row_block_min", &tuning::covariance_row_block_min,
            {128, 256, 512, 1024}, iterations, [&] { parallel_column_covariance(y, nullptr); }));
    }
    {
        const matrix y = random_matrix(quick ? 600 : 1600, quick ? 32 : 64, 12);
        reports.push_back(sweep_block_width("svd_row_block", &tuning::svd_row_block,
                                            {128, 256, 512, 1024, 2048}, iterations,
                                            [&] { svd(y); }));
    }
    {
        const std::size_t m = quick ? 1024 : 2048;
        const subspace_model model = synthetic_model(m, 16);
        const matrix rows = random_matrix(quick ? 64 : 256, m, 13);
        reports.push_back(sweep_block_width("link_block", &tuning::link_block,
                                            {64, 128, 256, 512, 1024}, iterations,
                                            [&] { model.spe_series(rows); }));
    }

    // --- Parallel gates (pure scheduling; need real concurrency) ----------
    if (parallel_hardware_ok()) {
        thread_pool pool(pool_threads);
        std::printf("gate probes with a %zu-thread pool\n", pool.size());

        reports.push_back(probe_gate(
            "svd_parallel_min_rows", &tuning::svd_parallel_min_rows,
            quick ? std::vector<std::size_t>{512, 1024} : std::vector<std::size_t>{1024, 2048, 4096},
            pool,
            [&](std::size_t t, thread_pool* p) {
                const matrix y = random_matrix(t, 48, 14 + t);
                const scoped_tuning guard;
                global_tuning().svd_parallel_min_rows = 1;
                return time_best_ms(iterations, [&] { svd(y, p); });
            },
            [](std::size_t t) { return t; }));

        reports.push_back(probe_gate(
            "parallel_min_links", &tuning::parallel_min_links,
            quick ? std::vector<std::size_t>{2048, 8192}
                  : std::vector<std::size_t>{1024, 2048, 4096, 8192, 16384},
            pool,
            [&](std::size_t m, thread_pool* p) {
                const subspace_model model = synthetic_model(m, 16);
                const matrix rows = random_matrix(16, m, 15 + m);
                const scoped_tuning guard;
                global_tuning().parallel_min_links = 1;
                global_tuning().spe_series_min_work = k_gate_never;  // isolate stage sharding
                return time_best_ms(iterations, [&] {
                    for (std::size_t r = 0; r < rows.rows(); ++r) {
                        model.project_direction_residual(rows.row(r), p);
                    }
                });
            },
            [](std::size_t m) { return m; }));

        reports.push_back(probe_gate(
            "spe_series_min_work", &tuning::spe_series_min_work,
            quick ? std::vector<std::size_t>{16, 64} : std::vector<std::size_t>{8, 16, 32, 64, 128},
            pool,
            [&](std::size_t rows_n, thread_pool* p) {
                const std::size_t m = 256;
                const subspace_model model = synthetic_model(m, 8);
                const matrix rows = random_matrix(rows_n, m, 16 + rows_n);
                const scoped_tuning guard;
                global_tuning().spe_series_min_work = 1;
                return time_best_ms(iterations, [&] { model.spe_series(rows, p); });
            },
            [](std::size_t rows_n) { return rows_n * 256 * 8; }));

        reports.push_back(probe_gate(
            "pca_projection_min_work", &tuning::pca_projection_min_work,
            quick ? std::vector<std::size_t>{512, 2048} : std::vector<std::size_t>{256, 512, 1024, 2048},
            pool,
            [&](std::size_t t, thread_pool* p) {
                const matrix y = random_matrix(t, 96, 17 + t);
                const scoped_tuning guard;
                global_tuning().pca_projection_min_work = 1;
                return time_best_ms(iterations, [&] { fit_pca(y, p); });
            },
            [](std::size_t t) { return t * 96; }));

        reports.push_back(probe_gate(
            "ql_parallel_min_work", &tuning::ql_parallel_min_work,
            quick ? std::vector<std::size_t>{128, 256} : std::vector<std::size_t>{128, 256, 512},
            pool,
            [&](std::size_t n, thread_pool* p) {
                const matrix a = random_symmetric(n, 18 + n);
                const scoped_tuning guard;
                global_tuning().ql_parallel_min_work = 1;
                return time_best_ms(iterations, [&] { sym_eigen(a, p); });
            },
            [](std::size_t n) { return n * n; }));

        reports.push_back(probe_gate(
            "jacobi_parallel_min_dim", &tuning::jacobi_parallel_min_dim,
            quick ? std::vector<std::size_t>{64, 128} : std::vector<std::size_t>{96, 192, 384},
            pool,
            [&](std::size_t n, thread_pool* p) {
                const matrix a = random_symmetric(n, 19 + n);
                const scoped_tuning guard;
                global_tuning().jacobi_parallel_min_dim = 1;
                return time_best_ms(iterations, [&] { sym_eigen_jacobi(a, p); });
            },
            [](std::size_t n) { return n; }));

        // diagnose_grain: argmin over the pooled full-pipeline sweep.
        {
            const dataset ds = make_sprint1_dataset();
            const volume_anomaly_diagnoser diag(ds.link_loads, ds.routing.a, 0.999);
            const batch_detector engine(pool.size());
            knob_report report;
            report.name = "diagnose_grain";
            report.fallback = tuning{}.diagnose_grain;
            report.measured = true;
            double best_ms = 0.0;
            for (const std::size_t grain : {4, 8, 16, 32, 64}) {
                const scoped_tuning guard;
                global_tuning().diagnose_grain = grain;
                const double ms = time_best_ms(
                    iterations, [&] { engine.test_all(diag.detector(), ds.link_loads); });
                if (report.chosen == 0 || ms < best_ms) {
                    best_ms = ms;
                    report.chosen = grain;
                }
            }
            char buf[64];
            std::snprintf(buf, sizeof buf, "argmin over pooled sweep, %.3f ms", best_ms);
            report.detail = buf;
            reports.push_back(report);
        }

        // Role-wait backoff: argmin over a contended drain-role workload
        // (two producers fan into one stream, so the loser of every role
        // exchange sits in spin_then_sleep_backoff). Swept one knob at a
        // time with the other at its default.
        {
            const matrix boot = random_matrix(64, 16, 23);
            const int rounds = quick ? 128 : 512;
            const auto contended_ingest_ms = [&] {
                stream_server server({.threads = 0});
                stream_open_config cfg;
                cfg.kind = stream_kind::tracking;
                cfg.bootstrap_y = boot;
                cfg.max_rank = 4;
                cfg.ingest.capacity = 64;
                cfg.ingest.policy = inbox_policy::block;
                const stream_id id = server.open_stream(std::move(cfg));
                std::vector<std::thread> producers;
                const auto start = std::chrono::steady_clock::now();
                for (int p = 0; p < 2; ++p) {
                    producers.emplace_back([&] {
                        for (int i = 0; i < rounds; ++i) {
                            (void)server.ingest(id, boot.row(i % boot.rows()));
                        }
                    });
                }
                for (std::thread& t : producers) t.join();
                server.flush_stream(id);
                return elapsed_ms(start);
            };
            const auto sweep_backoff = [&](const char* name, std::size_t tuning::*member,
                                           const std::vector<std::size_t>& candidates) {
                knob_report report;
                report.name = name;
                report.fallback = tuning{}.*member;
                report.measured = true;
                double best_ms = 0.0;
                for (const std::size_t value : candidates) {
                    const scoped_tuning guard;
                    global_tuning().*member = value;
                    double ms = contended_ingest_ms();
                    for (int i = 1; i < iterations; ++i) {
                        ms = std::min(ms, contended_ingest_ms());
                    }
                    if (report.chosen == 0 || ms < best_ms) {
                        best_ms = ms;
                        report.chosen = value;
                    }
                }
                char buf[64];
                std::snprintf(buf, sizeof buf, "argmin over contended ingest, %.3f ms",
                              best_ms);
                report.detail = buf;
                reports.push_back(report);
            };
            sweep_backoff("role_wait_spin_yields", &tuning::role_wait_spin_yields,
                          {8, 64, 256});
            sweep_backoff("role_wait_sleep_us", &tuning::role_wait_sleep_us,
                          {200, 1000, 4000});
        }
    } else {
        std::printf("host below the parallel_min_hardware floor (%zu hardware thread%s): "
                    "gate probes skipped, defaults recorded.\n",
                    hardware, hardware == 1 ? "" : "s");
    }

    // Assemble the tuned block. Knobs without a probe (ingest scheduling,
    // the hardware floor itself) keep their defaults.
    tuning tuned;
    std::printf("\nchosen profile:\n");
    for (knob_report& r : reports) {
        if (r.chosen == 0) {
            r.chosen = r.fallback;
            r.measured = false;
        }
        print_report(r);
    }
    for (const knob_report& r : reports) {
        // Map names back onto members via save/load round trip semantics:
        // the few knobs swept here are assigned directly.
        if (r.name == "covariance_row_block_min") tuned.covariance_row_block_min = r.chosen;
        else if (r.name == "svd_row_block") tuned.svd_row_block = r.chosen;
        else if (r.name == "link_block") tuned.link_block = r.chosen;
        else if (r.name == "svd_parallel_min_rows") tuned.svd_parallel_min_rows = r.chosen;
        else if (r.name == "parallel_min_links") tuned.parallel_min_links = r.chosen;
        else if (r.name == "spe_series_min_work") tuned.spe_series_min_work = r.chosen;
        else if (r.name == "pca_projection_min_work") tuned.pca_projection_min_work = r.chosen;
        else if (r.name == "ql_parallel_min_work") tuned.ql_parallel_min_work = r.chosen;
        else if (r.name == "jacobi_parallel_min_dim") tuned.jacobi_parallel_min_dim = r.chosen;
        else if (r.name == "diagnose_grain") tuned.diagnose_grain = r.chosen;
        else if (r.name == "role_wait_spin_yields") tuned.role_wait_spin_yields = r.chosen;
        else if (r.name == "role_wait_sleep_us") tuned.role_wait_sleep_us = r.chosen;
    }

    try {
        tuned.save_profile(json_path);
        // Round-trip self check: a profile this build cannot re-load is a bug.
        if (tuning::load_profile(json_path) != tuned) {
            std::fprintf(stderr, "bench_autotune: profile round trip diverged\n");
            return 1;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_autotune: %s\n", e.what());
        return 1;
    }
    std::printf("\nWrote %s (load with tuning::load_profile)\n", json_path.c_str());
    return 0;
}
