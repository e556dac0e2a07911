/// \file traced.cpp
/// The traced run. It warms the workload's state up through the drivers,
/// then times repeated calls into each layer from outside the program: one
/// span (name, start, end, parent, items) per call, kept in memory and
/// written once at the end. A layer's self time is its span minus its
/// children. No end-to-end number comes from this run.
///
/// Every layer is measured on every workload, under that workload's
/// execution policy (pool or not, ALE mode); the layers a workload's own
/// driver bypasses are predicted not to move on it. Per-step layer time
/// composes the spans with the calls a driver makes per step, and the
/// remainder against the driver's own step time is the unaccounted time.

#include <filesystem>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/driver.hpp"
#include "hydro/stepgraph.hpp"
#include "part/partition.hpp"
#include "part/subdomain.hpp"
#include "typhon/typhon.hpp"
#include "util/error.hpp"

namespace stepbench {

namespace bl = bookleaf;

namespace {

/// In-memory span recorder (single thread: rank 0 or the main thread).
class Tracer {
public:
    class Scope {
    public:
        Scope(Tracer& t, std::string name, long items = 0) : t_(t), id_(t.spans_.size()) {
            const long parent = t.open_.empty() ? -1 : static_cast<long>(t.open_.back());
            t.spans_.push_back({std::move(name), parent, t.now_us(), 0.0, items, 0.0});
            t.open_.push_back(id_);
        }
        ~Scope() {
            auto& s = t_.spans_[id_];
            s.end_us = t_.now_us();
            t_.open_.pop_back();
            if (s.parent >= 0)
                t_.spans_[static_cast<std::size_t>(s.parent)].child_us += s.end_us - s.start_us;
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& t_;
        std::size_t id_;
    };

    /// Median self time (span minus its children) of the spans named `name`, ms.
    [[nodiscard]] double median_ms(std::string_view name) const {
        return median_over(name, [](const Span& s) { return s.self_us() / 1e3; });
    }
    /// Median whole duration (children included) of the spans named `name`, ms.
    [[nodiscard]] double median_total_ms(std::string_view name) const {
        return median_over(name, [](const Span& s) { return (s.end_us - s.start_us) / 1e3; });
    }
    /// Median self time per swept item, ns.
    [[nodiscard]] double median_ns_per_item(std::string_view name) const {
        return median_over(name, [](const Span& s) {
            return s.self_us() * 1e3 / static_cast<double>(std::max(s.items, 1L));
        });
    }
    /// Items swept by the children of the first span named `parent`.
    [[nodiscard]] long child_items(std::string_view parent) const {
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].name != parent) continue;
            long items = 0;
            for (const auto& s : spans_)
                if (s.parent == static_cast<long>(i)) items += s.items;
            return items;
        }
        return 0;
    }
    [[nodiscard]] bl::obs::Json to_json() const {
        auto doc = bl::obs::Json::object();
        doc["schema"] = "bookleaf.stepbench.trace/1";
        auto& spans = doc["spans"];
        spans = bl::obs::Json::array();
        for (const auto& s : spans_) {
            auto j = bl::obs::Json::object();
            j["name"] = s.name;
            j["parent"] = s.parent;
            j["start_us"] = s.start_us;
            j["end_us"] = s.end_us;
            j["items"] = s.items;
            spans.push_back(std::move(j));
        }
        return doc;
    }

private:
    struct Span {
        std::string name;
        long parent;
        double start_us, end_us;
        long items;
        double child_us;
        [[nodiscard]] double self_us() const { return end_us - start_us - child_us; }
    };
    template <typename Value>
    [[nodiscard]] double median_over(std::string_view name, Value&& value) const {
        std::vector<double> v;
        for (const auto& s : spans_)
            if (s.name == name) v.push_back(value(s));
        bl::util::require(!v.empty(), "stepbench: no span named " + std::string(name));
        return median(v);
    }
    [[nodiscard]] double now_us() const {
        return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
    }
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

constexpr int min_rounds = 3;
constexpr int max_rounds = 40;
constexpr int halo_reps = 4; ///< per round: the halos take tens of microseconds
constexpr int n_parts = 4;

/// The owned slice (plus ghosts) of a global snapshot, for a subdomain.
bl::ckpt::Snapshot slice(const bl::ckpt::Snapshot& g, const bl::part::Subdomain& sub) {
    bl::ckpt::Snapshot l;
    l.mesh_hash = bl::ckpt::mesh_hash(sub.local);
    l.steps = g.steps;
    l.t = g.t;
    l.dt = g.dt;
    l.regrow = g.regrow;
    for (const Index gn : sub.local_nodes) {
        const auto n = static_cast<std::size_t>(gn);
        l.x.push_back(g.x[n]);
        l.y.push_back(g.y[n]);
        l.u.push_back(g.u[n]);
        l.v.push_back(g.v[n]);
        l.node_mass.push_back(g.node_mass[n]);
    }
    for (const Index gc : sub.local_cells) {
        const auto c = static_cast<std::size_t>(gc);
        l.rho.push_back(g.rho[c]);
        l.ein.push_back(g.ein[c]);
        l.q.push_back(g.q[c]);
        l.cell_mass.push_back(g.cell_mass[c]);
        for (std::size_t k = 0; k < bl::corners_per_cell; ++k)
            l.cnmass.push_back(g.cnmass[c * bl::corners_per_cell + k]);
    }
    return l;
}

/// The step times of a driver run: ms between consecutive step ends from
/// `first` on.
std::vector<double> step_times(const std::vector<Clock::time_point>& ends, std::size_t first) {
    std::vector<double> out;
    for (std::size_t k = std::max<std::size_t>(first, 1); k < ends.size(); ++k)
        out.push_back(std::chrono::duration<double, std::milli>(ends[k] - ends[k - 1]).count());
    return out;
}

std::uint64_t state_fingerprint(const bl::hydro::State& s) { return fingerprint(fields_of(s)); }

} // namespace

Outcome run_traced(const Workload& w, std::uint64_t seed, double seconds,
                   const std::string& scratch, const std::string& trace_path) {
    Outcome out;
    Tracer tr;
    std::filesystem::create_directories(scratch);
    const auto start = Clock::now();
    std::unique_ptr<bl::par::ThreadPool> pool;
    const bool core_pool = w.driver == Driver::core && w.threads > 1;
    if (core_pool) pool = std::make_unique<bl::par::ThreadPool>(w.threads);
    const bool graph_schedule = core_pool; // Hydro's default schedule is taskgraph
    const auto problem = make_problem(w, seed);
    const auto& mesh = problem.mesh;
    const auto cells = static_cast<long>(mesh.n_cells());
    const auto nodes = static_cast<long>(mesh.n_nodes());
    // One span around one call.
    const auto traced = [&](const char* name, long items, auto&& call) {
        const Tracer::Scope span(tr, name, items);
        call();
    };

    // --- core driver: set-up and warm-up; its snapshot is every layer's state
    double core_setup_ms = 0.0;
    const auto t_core = Clock::now();
    bl::core::Hydro h(make_problem(w, seed));
    if (pool) h.set_exec(exec_for(pool.get()));
    h.step();
    core_setup_ms = ms_since(t_core);
    for (int i = 0; i < w.warmup_steps; ++i) h.step();
    const auto snap = h.snapshot();

    // --- dist driver: the ranks workload's configuration in this mode ------
    // A fresh run in every round is the dist driver's reference: its set-up
    // and the mean of its timed steps (remap and checkpoint steps count in
    // proportion). Inside the rounds it samples the same spells of host
    // load as the layer spans it is compared with.
    Workload dw = w;
    dw.driver = Driver::dist;
    dw.ranks = n_parts;
    dw.observers = true;
    std::vector<double> dist_setup_ms, dist_step_ms;
    bl::obs::RunReport report;
    double live_bytes_per_step = 0.0;
    const auto dist_reference = [&] {
        const auto dir = scratch + "/dist";
        std::filesystem::create_directories(dir);
        std::vector<Clock::time_point> ends;
        const auto t0 = Clock::now();
        auto p = make_problem(dw, seed);
        auto opts = dist_options(dw, p, dir);
        opts.on_window = [&ends](const bl::obs::LiveWindow&) { ends.push_back(Clock::now()); };
        auto r = bl::dist::run(p.mesh, p.materials, p.rho, p.ein, p.u, p.v, opts);
        bl::util::require(r.steps == dw.total_steps() &&
                              ends.size() == static_cast<std::size_t>(r.steps),
                          "stepbench: dist run did not report every step");
        dist_setup_ms.push_back(
            std::chrono::duration<double, std::milli>(ends.front() - t0).count());
        const auto steps = step_times(ends, static_cast<std::size_t>(1 + dw.warmup_steps));
        double sum = 0.0;
        for (const double ms : steps) sum += ms;
        dist_step_ms.push_back(sum / static_cast<double>(steps.size()));
        if (dist_step_ms.size() == 1) {
            report = std::move(r.telemetry);
            live_bytes_per_step = static_cast<double>(std::filesystem::file_size(opts.telemetry.live)) /
                                  static_cast<double>(r.steps);
        }
        clear_scratch(dir);
    };

    // --- the global state every hydro, par and ale call restores ------------
    bl::util::Profiler profiler;
    bl::hydro::Context ctx;
    ctx.mesh = &mesh;
    ctx.materials = &problem.materials;
    ctx.opts = problem.hydro;
    ctx.exec = exec_for(pool.get());
    ctx.profiler = &profiler;
    bl::hydro::Context serial_ctx = ctx;
    serial_ctx.exec = exec_for(nullptr);
    auto forkjoin_ctx = ctx;
    forkjoin_ctx.exec.schedule = bl::par::Schedule::forkjoin;
    auto s = bl::hydro::allocate(mesh, ctx.exec);
    const auto reset = [&] { bl::ckpt::restore(mesh, problem.materials, snap, s); };
    reset();
    const Real dt = bl::hydro::getdt(ctx, s, snap.dt).dt;
    const auto ale_opts = ale_options(w);
    bl::ale::Workspace ws;

    // --- the rank states: an RCB decomposition restored from the snapshot ---
    const auto subs = bl::part::decompose(mesh, bl::part::rcb(mesh, n_parts), n_parts);
    double ghost_cells = 0.0;
    std::size_t big = 0;
    for (std::size_t r = 0; r < subs.size(); ++r) {
        ghost_cells += static_cast<double>(subs[r].local.n_cells() - subs[r].n_owned_cells);
        if (subs[r].n_owned_cells > subs[big].n_owned_cells) big = r;
    }
    const double owned_imbalance = static_cast<double>(subs[big].n_owned_cells) /
                                   (static_cast<double>(cells) / n_parts);
    struct Rank {
        bl::ckpt::Snapshot snap;
        bl::util::Profiler profiler;
        bl::hydro::Context ctx;
        bl::hydro::State s;
        bl::ale::Workspace ws;
    };
    std::vector<Rank> ranks(static_cast<std::size_t>(n_parts));
    for (std::size_t r = 0; r < ranks.size(); ++r) {
        auto& rk = ranks[r];
        const auto& sub = subs[r];
        rk.snap = slice(snap, sub);
        rk.ctx.mesh = &sub.local;
        rk.ctx.materials = &problem.materials;
        rk.ctx.opts = problem.hydro;
        rk.ctx.profiler = &rk.profiler;
        rk.ctx.dt_cells = sub.n_owned_cells;
        rk.ctx.assembly_corners = &sub.assembly_corners;
        rk.s = bl::hydro::allocate(sub.local);
        bl::ckpt::restore(sub.local, problem.materials, rk.snap, rk.s);
    }
    const auto state_halo = [](bl::typhon::Comm& comm, const bl::part::Subdomain& sub,
                               bl::hydro::State& st) {
        const std::array<bl::typhon::FieldGroup, 2> groups{
            bl::typhon::FieldGroup{&sub.node_schedule,
                                   {std::span<Real>(st.x), std::span<Real>(st.y),
                                    std::span<Real>(st.u), std::span<Real>(st.v)}},
            bl::typhon::FieldGroup{&sub.cell_schedule, {std::span<Real>(st.ein)}}};
        bl::typhon::exchange_all(comm, groups, 100, bl::typhon::Packing::coalesced);
    };
    const auto force_halo = [](bl::typhon::Comm& comm, const bl::part::Subdomain& sub,
                               bl::hydro::State& st) {
        bl::typhon::exchange_all(comm, sub.corner_schedule,
                                 {std::span<Real>(st.fx), std::span<Real>(st.fy)}, 200,
                                 bl::typhon::Packing::coalesced);
    };
    // One Lagrangian step's halo and reduction traffic, all ranks.
    const auto traffic = bl::typhon::run(n_parts, [&](bl::typhon::Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        state_halo(comm, subs[r], ranks[r].s);
        force_halo(comm, subs[r], ranks[r].s);
        (void)comm.allreduce_min(dt);
    });

    // --- the layer calls, one of each per round ------------------------------
    // Rounds interleave the layers, so every layer samples the same spells
    // of host load and their ratios stay comparable within a run.
    std::vector<std::uint64_t> lagstep_fps, ale_fps;
    std::unique_ptr<bl::hydro::StepGraph> graph;
    const auto ckpt_path = scratch + "/traced.ckpt";
    bl::obs::Options sinks;
    sinks.report = scratch + "/traced-report.json";
    const auto round = [&](bool first) {
        // The drivers' own steps: the core driver continues past the
        // snapshot; the dist driver runs afresh.
        traced("core.step", 0, [&] { h.step(); });
        dist_reference();

        reset();
        traced("hydro.getdt", cells, [&] { (void)bl::hydro::getdt(ctx, s, snap.dt); });
        {
            const Tracer::Scope step(tr, "hydro.lagstep");
            s.x0 = s.x;
            s.y0 = s.y;
            s.u0 = s.u;
            s.v0 = s.v;
            s.ein0 = s.ein;
            const Real half = Real(0.5) * dt;
            // Algorithm 1's LAGSTEP: predictor to t + dt/2, then corrector.
            traced("hydro.getq", cells, [&] { bl::hydro::getq(ctx, s); });
            traced("hydro.getforce", cells, [&] { bl::hydro::getforce(ctx, s); });
            traced("hydro.getgeom", cells, [&] { bl::hydro::getgeom(ctx, s, s.u0, s.v0, half); });
            traced("hydro.getrho", cells, [&] { bl::hydro::getrho(ctx, s); });
            traced("hydro.getein", cells, [&] { bl::hydro::getein(ctx, s, s.u0, s.v0, half); });
            traced("hydro.getpc", cells, [&] { bl::hydro::getpc(ctx, s); });
            traced("hydro.getq", cells, [&] { bl::hydro::getq(ctx, s); });
            traced("hydro.getforce", cells, [&] { bl::hydro::getforce(ctx, s); });
            traced("hydro.getacc", nodes, [&] { bl::hydro::getacc(ctx, s, dt); });
            traced("hydro.getgeom", cells, [&] { bl::hydro::getgeom(ctx, s, s.ubar, s.vbar, dt); });
            traced("hydro.getrho", cells, [&] { bl::hydro::getrho(ctx, s); });
            traced("hydro.getein", cells, [&] { bl::hydro::getein(ctx, s, s.ubar, s.vbar, dt); });
            traced("hydro.getpc", cells, [&] { bl::hydro::getpc(ctx, s); });
        }
        if (first) lagstep_fps.push_back(state_fingerprint(s));

        for (const auto& [name, c] : {std::pair{"par.serial.lagstep", &serial_ctx},
                                      std::pair{"par.forkjoin.lagstep", &ctx}}) {
            reset();
            traced(name, 0, [&] { bl::hydro::lagstep(*c, s, dt); });
            if (first) lagstep_fps.push_back(state_fingerprint(s));
        }
        graph.reset();
        traced("par.stepgraph.build", 0,
               [&] { graph = std::make_unique<bl::hydro::StepGraph>(ctx, s); });
        reset();
        traced("par.stepgraph.run", 0, [&] { graph->run(dt); });
        if (first) lagstep_fps.push_back(state_fingerprint(s));

        // One remap after a Lagrangian step, three ways.
        reset();
        bl::hydro::lagstep(ctx, s, dt);
        const bl::hydro::State pre = s;
        traced("ale.alegetmesh", cells, [&] { bl::ale::alegetmesh(forkjoin_ctx, s, ale_opts, ws); });
        traced("ale.alegetfvol", cells, [&] { bl::ale::alegetfvol(forkjoin_ctx, s, ws); });
        traced("ale.aleadvect", cells, [&] { bl::ale::aleadvect(forkjoin_ctx, s, ale_opts, ws); });
        if (first) ale_fps.push_back(state_fingerprint(s));
        traced("ale.aleupdate", cells, [&] { bl::ale::aleupdate(forkjoin_ctx, s, ws); });
        // The target mesh and swept volumes in `ws` depend only on the
        // pre-advection state, so both re-runs below reuse them.
        s = pre;
        traced("ale.aleadvect_graph", cells, [&] { bl::ale::aleadvect_graph(ctx, s, ale_opts, ws); });
        if (first) ale_fps.push_back(state_fingerprint(s));
        s = pre;
        bl::ale::aleadvect_centroids(forkjoin_ctx, s, ws);
        traced("ale.phase.gradients", cells, [&] {
            bl::ale::aleadvect_gradients(forkjoin_ctx, s, ale_opts, ws, mesh.n_cells());
        });
        traced("ale.phase.fluxes", cells, [&] { bl::ale::aleadvect_fluxes(forkjoin_ctx, s, ale_opts, ws); });
        traced("ale.phase.cells", cells, [&] { bl::ale::aleadvect_cells(forkjoin_ctx, s, ws, mesh.n_cells()); });
        traced("ale.phase.dual", cells, [&] { bl::ale::aleadvect_dual(forkjoin_ctx, s, ws, mesh.n_cells()); });
        traced("ale.phase.nodes", nodes, [&] { bl::ale::aleadvect_nodes(forkjoin_ctx, s, ws); });
        if (first) ale_fps.push_back(state_fingerprint(s));

        std::vector<Index> part;
        traced("part.rcb", cells, [&] { part = bl::part::rcb(mesh, n_parts); });
        traced("part.decompose", cells, [&] { (void)bl::part::decompose(mesh, part, n_parts); });

        // Rank 0 records the spans; every rank makes the same calls.
        bl::typhon::run(n_parts, [&](bl::typhon::Comm& comm) {
            const auto r = static_cast<std::size_t>(comm.rank());
            auto& rk = ranks[r];
            const auto& sub = subs[r];
            const auto collective = [&](const char* name, auto&& call) {
                comm.barrier();
                std::optional<Tracer::Scope> span;
                if (r == 0) span.emplace(tr, name);
                call();
            };
            for (int i = 0; i < halo_reps; ++i) {
                collective("typhon.halo_state", [&] { state_halo(comm, sub, rk.s); });
                collective("typhon.halo_force", [&] { force_halo(comm, sub, rk.s); });
                collective("typhon.allreduce", [&] { (void)comm.allreduce_min(dt); });
            }
            bl::ckpt::restore(sub.local, problem.materials, rk.snap, rk.s);
            collective("dist.remap", [&] {
                bl::dist::remap(rk.ctx, rk.s, ale_opts, rk.ws, comm, sub,
                                bl::typhon::Packing::coalesced);
            });
        });
        auto& rk = ranks[big];
        bl::ckpt::restore(subs[big].local, problem.materials, rk.snap, rk.s);
        traced("dist.rank_getdt", subs[big].n_owned_cells,
               [&] { (void)bl::hydro::getdt(rk.ctx, rk.s, rk.snap.dt); });
        traced("dist.rank_lagstep", subs[big].local.n_cells(),
               [&] { bl::hydro::lagstep(rk.ctx, rk.s, dt); });

        traced("ckpt.write", 0, [&] { bl::ckpt::write(ckpt_path, snap); });
        traced("obs.write_outputs", 0, [&] { bl::obs::write_outputs(sinks, report); });
        traced("setup.problem", cells, [&] { (void)make_problem(w, seed); });
    };
    const auto rounds_t0 = Clock::now();
    const double budget_ms = std::max(0.0, seconds * 1e3 - ms_since(start));
    double slowest_ms = 0.0;
    for (int i = 0; i < max_rounds && (i < min_rounds || ms_since(rounds_t0) + slowest_ms < budget_ms);
         ++i) {
        const auto t0 = Clock::now();
        round(i == 0);
        slowest_ms = std::max(slowest_ms, ms_since(t0));
    }
    const auto n_tasks = static_cast<double>(graph->n_tasks());
    graph.reset();
    const auto ckpt_bytes = static_cast<double>(std::filesystem::file_size(ckpt_path));

    // --- correctness: every formulation of a step lands the same bytes -------
    for (const auto* fps : {&lagstep_fps, &ale_fps}) {
        ++out.attempted;
        for (const auto fp : *fps)
            if (fp != fps->front()) {
                ++out.failed;
                out.errors.push_back(fps == &lagstep_fps
                                         ? "traced LAGSTEP formulations disagree"
                                         : "traced ALE advection formulations disagree");
                break;
            }
    }

    // --- metrics -------------------------------------------------------------------
    const double getdt_ms = tr.median_ms("hydro.getdt");
    const double lagstep_ms = tr.median_total_ms("hydro.lagstep");
    const double graph_run_ms = tr.median_ms("par.stepgraph.run");
    const double advect_ms = tr.median_ms("ale.aleadvect");
    const double advect_graph_ms = tr.median_ms("ale.aleadvect_graph");
    const double remap_ms = tr.median_ms("ale.alegetmesh") + tr.median_ms("ale.alegetfvol") +
                            (graph_schedule ? advect_graph_ms : advect_ms) +
                            tr.median_ms("ale.aleupdate");
    const double core_layer_ms =
        getdt_ms + (graph_schedule ? graph_run_ms : lagstep_ms) + w.remaps_per_step() * remap_ms;
    const double dist_layer_ms =
        tr.median_ms("dist.rank_getdt") + tr.median_ms("dist.rank_lagstep") +
        (tr.median_ms("typhon.halo_state") + tr.median_ms("typhon.halo_force") +
         tr.median_ms("typhon.allreduce")) +
        dw.remaps_per_step() * tr.median_ms("dist.remap") +
        tr.median_ms("ckpt.write") / dw.checkpoint_every();
    const double core_step_ms = tr.median_ms("core.step");
    const double dist_ref_ms = median(dist_step_ms);
    const bool is_core = w.driver == Driver::core;

    auto& m = out.metrics;
    for (const char* k : {"getq", "getforce", "getgeom", "getrho", "getein", "getpc", "getdt"})
        m.push_back({std::string("hydro.") + k + ".ns_per_cell",
                     tr.median_ns_per_item(std::string("hydro.") + k), "ns"});
    m.push_back({"hydro.getacc.ns_per_node", tr.median_ns_per_item("hydro.getacc"), "ns"});
    m.push_back({"hydro.lagstep.ms", lagstep_ms, "ms"});
    m.push_back({"hydro.items_per_step",
                 static_cast<double>(tr.child_items("hydro.lagstep") + cells), "count"});
    m.push_back({"par.stepgraph.build_ms", tr.median_ms("par.stepgraph.build"), "ms"});
    m.push_back({"par.stepgraph.run_ms", graph_run_ms, "ms"});
    m.push_back({"par.stepgraph.tasks", n_tasks, "count"});
    m.push_back({"par.forkjoin.lagstep_ms", tr.median_ms("par.forkjoin.lagstep"), "ms"});
    m.push_back({"par.speedup", tr.median_ms("par.serial.lagstep") / graph_run_ms, "x"});
    for (const char* k : {"alegetmesh", "alegetfvol", "aleadvect", "aleadvect_graph", "aleupdate"})
        m.push_back({std::string("ale.") + k + ".ms", tr.median_ms(std::string("ale.") + k), "ms"});
    m.push_back({"ale.graph_overhead_ms", advect_graph_ms - advect_ms, "ms"});
    for (const char* k : {"gradients", "fluxes", "cells", "dual", "nodes"})
        m.push_back({std::string("ale.phase.") + k + ".ms",
                     tr.median_ms(std::string("ale.phase.") + k), "ms"});
    m.push_back({"part.rcb.ms", tr.median_ms("part.rcb"), "ms"});
    m.push_back({"part.decompose.ms", tr.median_ms("part.decompose"), "ms"});
    m.push_back({"part.ghost_cells", ghost_cells, "count"});
    m.push_back({"part.owned_imbalance", owned_imbalance, "x"});
    m.push_back({"typhon.halo_state.us", 1e3 * tr.median_ms("typhon.halo_state"), "us"});
    m.push_back({"typhon.halo_force.us", 1e3 * tr.median_ms("typhon.halo_force"), "us"});
    m.push_back({"typhon.allreduce.us", 1e3 * tr.median_ms("typhon.allreduce"), "us"});
    m.push_back({"typhon.bytes_per_step",
                 static_cast<double>(traffic.reals) * sizeof(Real), "bytes"});
    m.push_back({"typhon.messages_per_step", static_cast<double>(traffic.messages), "count"});
    m.push_back({"dist.remap.ms", tr.median_ms("dist.remap"), "ms"});
    m.push_back({"dist.rank_lagstep.ms", tr.median_ms("dist.rank_lagstep"), "ms"});
    m.push_back({"ckpt.write.ms", tr.median_ms("ckpt.write"), "ms"});
    m.push_back({"ckpt.bytes", ckpt_bytes, "bytes"});
    m.push_back({"obs.write_outputs.ms", tr.median_ms("obs.write_outputs"), "ms"});
    m.push_back({"obs.live_bytes_per_step", live_bytes_per_step, "bytes"});
    m.push_back({"setup.problem.ms", tr.median_ms("setup.problem"), "ms"});
    m.push_back({"setup.driver.ms", is_core ? core_setup_ms : median(dist_setup_ms), "ms"});
    m.push_back({"core.unaccounted_ms", core_step_ms - core_layer_ms, "ms"});
    m.push_back({"dist.unaccounted_ms", dist_ref_ms - dist_layer_ms, "ms"});
    m.push_back({"trace.coverage",
                 is_core ? core_layer_ms / core_step_ms : dist_layer_ms / dist_ref_ms, "x"});

    out.detail["core_step_ms"] = core_step_ms;
    out.detail["dist_step_ms"] = dist_ref_ms;
    out.detail["core_layer_ms"] = core_layer_ms;
    out.detail["dist_layer_ms"] = dist_layer_ms;
    out.detail["trace_file"] = trace_path;
    bl::obs::write_json_file(trace_path, tr.to_json());
    return out;
}

} // namespace stepbench
