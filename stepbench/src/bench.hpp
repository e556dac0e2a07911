#pragma once
/// \file bench.hpp
/// The BookLeaf step benchmark: two Noh 256^2 workloads, the inputs
/// generated from a seed, the end-to-end timed run with its correctness
/// gate, and the traced per-layer run. Everything here drives the library
/// through its public entry points and times the calls with its own clock.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dist/distributed.hpp"
#include "obs/json.hpp"
#include "par/thread_pool.hpp"
#include "setup/problems.hpp"

namespace stepbench {

using bookleaf::Index;
using bookleaf::Real;
using Clock = std::chrono::steady_clock;

enum class Driver { core, dist };

/// One benchmark workload: Noh at n x n cells driven for a fixed number of
/// steps by one driver configuration.
struct Workload {
    std::string name;
    Driver driver = Driver::core;
    bookleaf::ale::Mode mode = bookleaf::ale::Mode::lagrange;
    int threads = 1;        ///< pool width of the core driver (1 = no pool)
    int ranks = 1;          ///< in-process ranks of the dist driver
    bool observers = false; ///< telemetry report + live stream + checkpoints
    Index n = 256;
    int warmup_steps = 3;   ///< untimed steps after step 1
    int timed_steps = 24;

    [[nodiscard]] int total_steps() const { return 1 + warmup_steps + timed_steps; }
    /// With observers, a checkpoint is written halfway and at the last
    /// step (whose checkpoint the energy check reads).
    [[nodiscard]] int checkpoint_every() const { return total_steps() / 2; }
    /// Remaps per Lagrangian step under the workload's ALE mode.
    [[nodiscard]] double remaps_per_step() const;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// Throws bookleaf::util::Error for an unknown name.
[[nodiscard]] const Workload& workload(std::string_view name);
/// The workload at a smaller mesh and step count (tests).
[[nodiscard]] Workload scaled(const Workload& w, Index n, int warmup, int timed);

/// The Noh deck at the workload's size and ALE mode. Seed 0 keeps the
/// generator's numbering; any other seed renumbers cells and nodes with
/// mesh::permute and rebuilds the initial condition from the geometry.
[[nodiscard]] bookleaf::setup::Problem make_problem(const Workload& w,
                                                    std::uint64_t seed);

/// The workload's ALE options (its mode; for ALE, data/noh_ale.in's).
[[nodiscard]] bookleaf::ale::Options ale_options(const Workload& w);

/// dist::Options of the workload's dist run. Window callbacks are always on
/// (one window per step, no watchdog): they are the step clock. With
/// observers, the report, live stream and checkpoints go under `scratch`.
[[nodiscard]] bookleaf::dist::Options dist_options(const Workload& w,
                                                   const bookleaf::setup::Problem& p,
                                                   const std::string& scratch);

/// The core driver's execution policy on `pool` (null: serial).
[[nodiscard]] bookleaf::par::Exec exec_for(bookleaf::par::ThreadPool* pool);

/// The final fields the fingerprint covers.
struct Fields {
    std::vector<Real> rho, ein, u, v, x, y;
};
[[nodiscard]] Fields fields_of(const bookleaf::hydro::State& s);
[[nodiscard]] Fields fields_of(const bookleaf::dist::Result& r);
/// FNV-1a over the bytes of rho, ein, u, v, x, y in that order.
[[nodiscard]] std::uint64_t fingerprint(const Fields& f);
[[nodiscard]] std::string hex(std::uint64_t v);

struct Accuracy {
    double rho_l1_err = 0.0;
    double energy_drift = 0.0;
};
/// Total energy of the initial state.
[[nodiscard]] double initial_energy(const bookleaf::setup::Problem& p);
/// Volume-weighted L1 density error against the exact Noh solution at time
/// t, and the relative change in total energy against `e0`.
[[nodiscard]] Accuracy accuracy(const bookleaf::mesh::Mesh& mesh,
                                const bookleaf::hydro::State& s, Real t, double e0);

/// What the correctness gate compares a run against (expected.json).
struct Expected {
    std::optional<std::uint64_t> fingerprint; ///< at seed 0
    double rho_l1_err_max = 0.0;
    double energy_drift_max = 0.0;
};
/// Read the workload's entry; throws bookleaf::util::Error when absent.
[[nodiscard]] Expected load_expected(const std::string& path,
                                     const std::string& workload);

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// One run's outcome: the gate's counts and the metrics it reports.
struct Outcome {
    int attempted = 0;
    int failed = 0;
    std::vector<std::string> errors;
    std::vector<Metric> metrics;
    bookleaf::obs::Json detail = bookleaf::obs::Json::object();
};

/// One fresh run of the workload: problem construction, driver, step 1
/// (set-up ends there), the warm-up, then every timed step on its own clock.
struct Segment {
    double setup_s = 0.0;
    std::vector<double> step_ms;
    std::uint64_t fingerprint = 0;
    Accuracy accuracy;
};
/// `pool` drives the core driver (null: serial); the dist driver's files go
/// under `scratch`, which is removed afterwards. `e0`: initial_energy().
[[nodiscard]] Segment run_segment(const Workload& w, std::uint64_t seed,
                                  bookleaf::par::ThreadPool* pool,
                                  const std::string& scratch, double e0);

/// End-to-end run: fresh segments of total_steps() steps each, repeated
/// for `seconds` (at least three timed after an untimed first), every one
/// gated.
[[nodiscard]] Outcome run_timed(const Workload& w, std::uint64_t seed,
                                double seconds, const std::string& scratch,
                                const Expected& expected);

/// Traced run: restores the warmed-up state and times repeated calls into
/// each layer, one span per call, within about `seconds`. The spans are
/// written to `trace_path` at the end.
[[nodiscard]] Outcome run_traced(const Workload& w, std::uint64_t seed,
                                 double seconds, const std::string& scratch,
                                 const std::string& trace_path);

// --- small shared helpers ---------------------------------------------------
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double ms_since(Clock::time_point t0);
/// Remove a scratch directory and everything in it.
void clear_scratch(const std::string& dir);

} // namespace stepbench
