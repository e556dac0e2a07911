/// \file workloads.cpp
/// Workload table, seeded input generation and the output checks shared by
/// the timed and traced runs.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "analytic/exact.hpp"
#include "analytic/norms.hpp"
#include "bench.hpp"
#include "mesh/generator.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace stepbench {

namespace bl = bookleaf;

double Workload::remaps_per_step() const {
    switch (mode) {
    case bl::ale::Mode::lagrange: return 0.0;
    case bl::ale::Mode::eulerian: return 1.0;
    case bl::ale::Mode::ale: return 1.0 / 3.0;
    }
    return 0.0;
}

// Why each workload exists: README.md and BENCHMARK.json.
const std::vector<Workload>& workloads() {
    static const std::vector<Workload> table = [] {
        std::vector<Workload> t;
        Workload eulerian;
        eulerian.name = "noh256-eulerian-threads4";
        eulerian.mode = bl::ale::Mode::eulerian;
        eulerian.threads = 4;
        t.push_back(eulerian);

        // 36 steps: two of the 30 timed steps write a checkpoint (steps 18
        // and 36) and ten remap.
        Workload ranks;
        ranks.name = "noh256-ale-ranks4";
        ranks.driver = Driver::dist;
        ranks.mode = bl::ale::Mode::ale;
        ranks.ranks = 4;
        ranks.observers = true;
        ranks.warmup_steps = 5;
        ranks.timed_steps = 30;
        t.push_back(ranks);
        return t;
    }();
    return table;
}

const Workload& workload(std::string_view name) {
    for (const auto& w : workloads())
        if (w.name == name) return w;
    throw bl::util::Error("stepbench: unknown workload '" + std::string(name) + "'");
}

Workload scaled(const Workload& w, Index n, int warmup, int timed) {
    Workload s = w;
    s.n = n;
    s.warmup_steps = warmup;
    s.timed_steps = timed;
    return s;
}

bl::ale::Options ale_options(const Workload& w) {
    bl::ale::Options a;
    a.mode = w.mode;
    if (a.mode == bl::ale::Mode::ale) {
        // data/noh_ale.in
        a.frequency = 3;
        a.smoothing_passes = 2;
    }
    return a;
}

bl::setup::Problem make_problem(const Workload& w, std::uint64_t seed) {
    auto p = bl::setup::noh(w.n);
    if (seed != 0) {
        bl::util::SplitMix64 rng(seed);
        p.mesh = bl::mesh::permute(p.mesh, rng);
        // Noh's initial condition is a function of position only: uniform
        // density and cold energy, unit inflow towards the origin with the
        // wall-normal components zeroed.
        const auto cells = static_cast<std::size_t>(p.mesh.n_cells());
        const auto nodes = static_cast<std::size_t>(p.mesh.n_nodes());
        const Real rho0 = p.rho.front();
        const Real ein0 = p.ein.front();
        p.rho.assign(cells, rho0);
        p.ein.assign(cells, ein0);
        p.u.assign(nodes, 0.0);
        p.v.assign(nodes, 0.0);
        for (std::size_t i = 0; i < nodes; ++i) {
            const Real r = std::hypot(p.mesh.x[i], p.mesh.y[i]);
            if (r > bl::tiny) {
                p.u[i] = -p.mesh.x[i] / r;
                p.v[i] = -p.mesh.y[i] / r;
            }
            if (p.mesh.node_bc[i] & bl::mesh::bc::fix_u) p.u[i] = 0.0;
            if (p.mesh.node_bc[i] & bl::mesh::bc::fix_v) p.v[i] = 0.0;
        }
    }
    p.ale = ale_options(w);
    return p;
}

bl::dist::Options dist_options(const Workload& w, const bl::setup::Problem& p,
                               const std::string& scratch) {
    bl::dist::Options o;
    o.n_ranks = w.ranks;
    o.n_threads = 1;
    o.t_end = p.t_end;
    o.hydro = p.hydro;
    o.ale = p.ale;
    o.max_steps = w.total_steps();
    o.overlap = true;
    o.packing = bl::typhon::Packing::coalesced;
    o.telemetry.window_steps = 1;
    o.telemetry.watchdog_factor = 0.0;
    if (w.observers) {
        o.telemetry.report = scratch + "/report.json";
        o.telemetry.live = scratch + "/live.ndjson";
        bl::util::require(w.total_steps() % 2 == 0,
                          "stepbench: an observed run needs an even step count");
        o.checkpoint.every_steps = w.checkpoint_every();
        o.checkpoint.prefix = scratch + "/ckpt";
    }
    return o;
}

bl::par::Exec exec_for(bl::par::ThreadPool* pool) {
    bl::par::Exec e;
    e.pool = pool;
    return e;
}

namespace {
template <typename F>
std::vector<Real> copy_of(const F& f) {
    return {f.begin(), f.end()};
}
} // namespace

Fields fields_of(const bl::hydro::State& s) {
    return {copy_of(s.rho), copy_of(s.ein), copy_of(s.u),
            copy_of(s.v),   copy_of(s.x),   copy_of(s.y)};
}

Fields fields_of(const bl::dist::Result& r) {
    return {r.rho, r.ein, r.u, r.v, r.x, r.y};
}

std::uint64_t fingerprint(const Fields& f) {
    std::uint64_t h = bl::util::fnv1a_offset;
    for (const auto* v : {&f.rho, &f.ein, &f.u, &f.v, &f.x, &f.y})
        h = bl::util::fnv1a(h, v->data(), v->size() * sizeof(Real));
    return h;
}

std::string hex(std::uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
    return buf;
}

double initial_energy(const bl::setup::Problem& p) {
    auto s = bl::hydro::allocate(p.mesh);
    s.rho.assign(p.rho.begin(), p.rho.end());
    s.ein.assign(p.ein.begin(), p.ein.end());
    s.u.assign(p.u.begin(), p.u.end());
    s.v.assign(p.v.begin(), p.v.end());
    bl::hydro::initialise(p.mesh, p.materials, s);
    return bl::hydro::totals(p.mesh, s).total_energy();
}

Accuracy accuracy(const bl::mesh::Mesh& mesh, const bl::hydro::State& s, Real t,
                  double e0) {
    Accuracy a;
    const auto norms = bl::analytic::cell_error_norms(
        mesh, s.x, s.y, s.volume, s.rho, [t](Real cx, Real cy) {
            return bl::analytic::noh_exact(std::hypot(cx, cy), t).rho;
        });
    a.rho_l1_err = norms.l1;
    a.energy_drift = std::abs(bl::hydro::totals(mesh, s).total_energy() - e0) / e0;
    return a;
}

Expected load_expected(const std::string& path, const std::string& workload) {
    const auto doc = bl::obs::read_json_file(path);
    const auto* all = doc.find("workloads");
    const auto* entry = all != nullptr ? all->find(workload) : nullptr;
    if (entry == nullptr)
        throw bl::util::Error("stepbench: " + path + " has no entry for " + workload);
    Expected e;
    if (const auto* fp = entry->find("fingerprint_seed0"); fp != nullptr)
        e.fingerprint = std::stoull(fp->as_string(), nullptr, 16);
    e.rho_l1_err_max = entry->find("rho_l1_err_max")->as_real();
    e.energy_drift_max = entry->find("energy_drift_max")->as_real();
    return e;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void clear_scratch(const std::string& dir) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

} // namespace stepbench
