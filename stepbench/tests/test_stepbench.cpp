/// \file test_stepbench.cpp
/// The step benchmark's own tests: every workload runs end to end at a
/// small size through the benchmark's code paths and emits exactly the
/// metrics BENCHMARK.json names; the ranks workload's gathered fields equal
/// a serial core::Hydro run bit for bit (so its recorded fingerprint is
/// the serial-contract value); the traced run's counts repeat exactly; and
/// the correctness gate fails a run whose output is wrong.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "bench.hpp"
#include "core/driver.hpp"

namespace bl = bookleaf;
using stepbench::Workload;

namespace {

const std::string dir = STEPBENCH_DIR;

std::set<std::string> benchmark_names(const char* section) {
    const auto doc = bl::obs::read_json_file(dir + "/../BENCHMARK.json");
    std::set<std::string> names;
    for (const auto& m : doc.find(section)->elements())
        names.insert(m.find("name")->as_string());
    return names;
}

std::set<std::string> names_of(const stepbench::Outcome& out) {
    std::set<std::string> names;
    for (const auto& m : out.metrics) names.insert(m.name);
    return names;
}

double metric(const stepbench::Outcome& out, const std::string& name) {
    for (const auto& m : out.metrics)
        if (m.name == name) return m.value;
    ADD_FAILURE() << "no metric " << name;
    return 0.0;
}

/// Small enough for a test, with an even step count for the observers.
Workload small(const Workload& w) { return stepbench::scaled(w, 16, 1, 4); }

stepbench::Expected loose() {
    stepbench::Expected e;
    e.rho_l1_err_max = 1e9;
    e.energy_drift_max = 1e9;
    return e;
}

} // namespace

TEST(StepBench, WorkloadNamesMatchBenchmarkJson) {
    const auto doc = bl::obs::read_json_file(dir + "/../BENCHMARK.json");
    std::set<std::string> listed, ours;
    for (const auto& w : doc.find("workloads")->elements())
        listed.insert(w.find("name")->as_string());
    for (const auto& w : stepbench::workloads()) ours.insert(w.name);
    EXPECT_EQ(listed, ours);
}

TEST(StepBench, SeedZeroKeepsNumberingOtherSeedsRenumber) {
    const auto& w = stepbench::workload("noh256-eulerian-threads4");
    const auto s = stepbench::scaled(w, 12, 1, 2);
    const auto base = bl::setup::noh(12);
    const auto p0 = stepbench::make_problem(s, 0);
    EXPECT_EQ(p0.mesh.x, base.mesh.x);
    EXPECT_EQ(p0.mesh.cell_nodes, base.mesh.cell_nodes);
    EXPECT_EQ(p0.u, base.u);
    const auto p7 = stepbench::make_problem(s, 7);
    EXPECT_NE(p7.mesh.cell_nodes, base.mesh.cell_nodes);
    EXPECT_EQ(p7.mesh.n_cells(), base.mesh.n_cells());
    EXPECT_EQ(stepbench::make_problem(s, 7).mesh.cell_nodes, p7.mesh.cell_nodes);
    // The initial condition is rebuilt from the renumbered geometry.
    for (std::size_t i = 0; i < p7.u.size(); ++i) {
        const double r = std::hypot(p7.mesh.x[i], p7.mesh.y[i]);
        if (p7.mesh.node_bc[i] == bl::mesh::bc::none && r > 0.0)
            EXPECT_DOUBLE_EQ(p7.u[i], -p7.mesh.x[i] / r);
    }
    EXPECT_DOUBLE_EQ(stepbench::initial_energy(p7), stepbench::initial_energy(p0));
}

TEST(StepBench, EveryWorkloadEmitsTheBenchmarkMetrics) {
    const auto e2e = benchmark_names("end_to_end");
    const auto layers = benchmark_names("per_layer");
    for (const auto& w : stepbench::workloads()) {
        const auto s = small(w);
        const auto timed = stepbench::run_timed(s, 3, 0.0, "smoke-" + w.name, loose());
        EXPECT_EQ(timed.failed, 0) << w.name;
        EXPECT_EQ(timed.attempted, 4) << w.name; // the warm-up segment + three
        EXPECT_EQ(names_of(timed), e2e) << w.name;
        for (const auto& m : timed.metrics) EXPECT_GT(m.value, 0.0) << w.name << " " << m.name;

        const auto traced = stepbench::run_traced(s, 3, 0.0, "smoke-" + w.name,
                                                  "smoke-trace-" + w.name + ".json");
        EXPECT_EQ(traced.failed, 0) << w.name;
        EXPECT_EQ(names_of(traced), layers) << w.name;
        stepbench::clear_scratch("smoke-" + w.name);
    }
}

TEST(StepBench, RanksWorkloadEqualsSerialDriverBitwise) {
    const auto& w = stepbench::workload("noh256-ale-ranks4");
    const auto p = stepbench::make_problem(w, 0);
    const auto seg = stepbench::run_segment(w, 0, nullptr, "bitwise-ranks",
                                            stepbench::initial_energy(p));

    bl::core::Hydro h(stepbench::make_problem(w, 0));
    for (int i = 0; i < w.total_steps(); ++i) h.step();
    const auto serial = stepbench::fingerprint(stepbench::fields_of(h.state()));
    EXPECT_EQ(stepbench::hex(seg.fingerprint), stepbench::hex(serial));

    const auto expected = stepbench::load_expected(dir + "/expected.json", w.name);
    ASSERT_TRUE(expected.fingerprint.has_value());
    EXPECT_EQ(stepbench::hex(serial), stepbench::hex(*expected.fingerprint));
}

TEST(StepBench, TracedCountsRepeatExactly) {
    const auto& w = stepbench::workload("noh256-ale-ranks4");
    const auto a = stepbench::run_traced(w, 5, 0.0, "counts-a", "counts-a.json");
    const auto b = stepbench::run_traced(w, 5, 0.0, "counts-b", "counts-b.json");
    stepbench::clear_scratch("counts-a");
    stepbench::clear_scratch("counts-b");
    for (const char* name : {"hydro.items_per_step", "par.stepgraph.tasks",
                             "typhon.bytes_per_step", "typhon.messages_per_step",
                             "part.ghost_cells", "ckpt.bytes"}) {
        EXPECT_GT(metric(a, name), 0.0) << name;
        EXPECT_EQ(metric(a, name), metric(b, name)) << name;
    }
}

TEST(StepBench, GateFailsWrongFingerprintAndAccuracy) {
    const auto s = small(stepbench::workload("noh256-eulerian-threads4"));
    auto wrong_fp = loose();
    wrong_fp.fingerprint = 0x1234;
    const auto a = stepbench::run_timed(s, 0, 0.0, "gate-a", wrong_fp);
    EXPECT_EQ(a.failed, a.attempted);
    EXPECT_TRUE(a.metrics.empty());
    // Away from seed 0 the fingerprint is not recorded, but the accuracy
    // bounds still apply.
    const auto b = stepbench::run_timed(s, 4, 0.0, "gate-b", wrong_fp);
    EXPECT_EQ(b.failed, 0);
    auto tight = loose();
    tight.energy_drift_max = 0.0;
    const auto c = stepbench::run_timed(s, 4, 0.0, "gate-c", tight);
    EXPECT_EQ(c.failed, c.attempted);
}
