/// \file timed.cpp
/// The end-to-end run. Each segment builds the problem from the seed,
/// constructs the driver, steps once (set-up ends here), warms up, and
/// times every remaining step. Every segment computes the same steps from
/// the same inputs, so its final fields are checked against the first
/// segment's (and, at seed 0, against the recorded fingerprint), and its
/// accuracy against the workload's bounds.

#include <filesystem>

#include "bench.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/driver.hpp"
#include "util/error.hpp"

namespace stepbench {

namespace bl = bookleaf;

namespace {

constexpr int min_segments = 3; ///< timed, however short `seconds` is

Segment core_segment(const Workload& w, std::uint64_t seed,
                     bl::par::ThreadPool* pool, double e0) {
    Segment seg;
    const auto t0 = Clock::now();
    bl::core::Hydro h(make_problem(w, seed));
    if (pool != nullptr) h.set_exec(exec_for(pool));
    h.step();
    seg.setup_s = ms_since(t0) / 1e3;
    for (int i = 0; i < w.warmup_steps; ++i) h.step();
    for (int i = 0; i < w.timed_steps; ++i) {
        const auto ts = Clock::now();
        h.step();
        seg.step_ms.push_back(ms_since(ts));
    }
    seg.fingerprint = fingerprint(fields_of(h.state()));
    seg.accuracy = accuracy(h.mesh(), h.state(), h.time(), e0);
    return seg;
}

Segment dist_segment(const Workload& w, std::uint64_t seed,
                     const std::string& scratch, double e0) {
    Segment seg;
    std::vector<Clock::time_point> ends;
    ends.reserve(static_cast<std::size_t>(w.total_steps()));
    const auto t0 = Clock::now();
    auto p = make_problem(w, seed);
    auto opts = dist_options(w, p, scratch);
    // Rank 0 calls this once per step (one window per step): the end of
    // that step on the benchmark's clock.
    opts.on_window = [&ends](const bl::obs::LiveWindow&) {
        ends.push_back(Clock::now());
    };
    const auto r = bl::dist::run(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, opts);
    bl::util::require(r.steps == w.total_steps() &&
                          ends.size() == static_cast<std::size_t>(r.steps),
                      "stepbench: dist run did not report every step");
    seg.setup_s = std::chrono::duration<double>(ends.front() - t0).count();
    for (auto k = static_cast<std::size_t>(1 + w.warmup_steps); k < ends.size(); ++k)
        seg.step_ms.push_back(
            std::chrono::duration<double, std::milli>(ends[k] - ends[k - 1]).count());

    const auto fields = fields_of(r);
    seg.fingerprint = fingerprint(fields);
    // The last checkpoint holds the final state with its masses, which
    // the energy needs; its fields must be the gathered ones.
    bl::util::require(!r.checkpoints.empty() &&
                          r.checkpoints.back() == opts.checkpoint.path_for(r.steps),
                      "stepbench: no checkpoint at the final step");
    const auto snap = bl::ckpt::read(r.checkpoints.back());
    auto s = bl::hydro::allocate(p.mesh);
    bl::ckpt::restore(p.mesh, p.materials, snap, s);
    bl::util::require(fingerprint(fields_of(s)) == seg.fingerprint,
                      "stepbench: final checkpoint differs from the gathered fields");
    seg.accuracy = accuracy(p.mesh, s, r.t_final, e0);
    return seg;
}

} // namespace

Segment run_segment(const Workload& w, std::uint64_t seed, bl::par::ThreadPool* pool,
                    const std::string& scratch, double e0) {
    std::filesystem::create_directories(scratch);
    auto seg = w.driver == Driver::core ? core_segment(w, seed, pool, e0)
                                        : dist_segment(w, seed, scratch, e0);
    clear_scratch(scratch);
    return seg;
}

Outcome run_timed(const Workload& w, std::uint64_t seed, double seconds,
                  const std::string& scratch, const Expected& expected) {
    Outcome out;
    std::unique_ptr<bl::par::ThreadPool> pool;
    if (w.driver == Driver::core && w.threads > 1)
        pool = std::make_unique<bl::par::ThreadPool>(w.threads);
    const double e0 = initial_energy(make_problem(w, seed));

    // The first segment warms the process up (page faults, caches, clock
    // ramp): it is gated like every other but not timed.
    std::vector<double> setup_s, segment_ms;
    std::optional<std::uint64_t> first_fp;
    Accuracy acc;
    auto segments = bl::obs::Json::array();
    const auto start = Clock::now();
    double slowest_ms = 0.0;
    // Keep going while another segment fits in the time; past it, only
    // until min_segments are timed, giving up after min_segments + 1
    // attempts (the warm-up included).
    const auto more = [&] {
        if (ms_since(start) + slowest_ms < seconds * 1e3) return true;
        return static_cast<int>(segment_ms.size()) < min_segments &&
               out.attempted <= min_segments;
    };
    while (more()) {
        ++out.attempted;
        const auto seg_t0 = Clock::now();
        std::string error;
        try {
            const auto seg = run_segment(w, seed, pool.get(), scratch, e0);
            if (!first_fp) first_fp = seg.fingerprint;
            if (seg.fingerprint != *first_fp)
                error = "fingerprint " + hex(seg.fingerprint) +
                        " differs from the first segment's " + hex(*first_fp);
            else if (seed == 0 && expected.fingerprint &&
                     seg.fingerprint != *expected.fingerprint)
                error = "fingerprint " + hex(seg.fingerprint) +
                        " differs from the recorded " + hex(*expected.fingerprint);
            else if (!(seg.accuracy.rho_l1_err <= expected.rho_l1_err_max))
                error = "rho_l1_err " + std::to_string(seg.accuracy.rho_l1_err) +
                        " above its bound";
            else if (!(seg.accuracy.energy_drift <= expected.energy_drift_max))
                error = "energy_drift " + std::to_string(seg.accuracy.energy_drift) +
                        " above its bound";
            if (error.empty() && out.attempted > 1) {
                setup_s.push_back(seg.setup_s);
                double sum = 0.0;
                for (const double ms : seg.step_ms) sum += ms;
                segment_ms.push_back(sum / static_cast<double>(seg.step_ms.size()));
                acc = seg.accuracy;
                auto js = bl::obs::Json::object();
                js["setup_s"] = seg.setup_s;
                js["step_ms"] = segment_ms.back();
                js["fingerprint"] = hex(seg.fingerprint);
                segments.push_back(std::move(js));
            }
        } catch (const bl::util::Error& e) {
            clear_scratch(scratch);
            error = e.what();
        }
        if (!error.empty()) {
            ++out.failed;
            out.errors.push_back(error);
        }
        slowest_ms = std::max(slowest_ms, ms_since(seg_t0));
    }
    if (segment_ms.empty()) return out;

    out.metrics = {
        {"step_ms", median(segment_ms), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"rho_l1_err", acc.rho_l1_err, "1"},
        {"energy_drift", acc.energy_drift, "1"},
    };
    out.detail["fingerprint"] = hex(*first_fp);
    out.detail["segments"] = std::move(segments);
    return out;
}

} // namespace stepbench
