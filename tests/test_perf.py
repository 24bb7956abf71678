"""Tests for the perf-counter instrumentation."""

import numpy as np

from repro import perf, reference
from repro.device import nfet
from repro.tcad.simulator import DeviceSimulator


class TestCounters:
    def test_bump_get_reset(self):
        perf.reset()
        perf.bump("x")
        perf.bump("x", 4)
        assert perf.get("x") == 5
        assert perf.get("never-bumped") == 0
        perf.reset()
        assert perf.get("x") == 0

    def test_snapshot_and_merge(self):
        perf.reset()
        perf.bump("a", 2)
        snap = perf.snapshot()
        perf.merge({"a": 3, "b": 1})
        assert snap == {"a": 2}
        assert perf.get("a") == 5
        assert perf.get("b") == 1

    def test_report_renders_counts(self):
        perf.reset()
        assert "none recorded" in perf.report()
        perf.bump("poisson.solves", 1234)
        text = perf.report()
        assert "poisson.solves" in text
        assert "1,234" in text


class TestInstrumentation:
    def test_poisson_solves_counted(self):
        dev = nfet(l_poly_nm=65, t_ox_nm=2.1, n_sub_cm3=1.2e18,
                   n_p_halo_cm3=1.5e18)
        sim = DeviceSimulator(dev)
        perf.reset()
        sim.surface_potential_sweep(np.linspace(0.0, 1.0, 7))
        assert perf.get("poisson.batch_solves") == 1
        assert perf.get("poisson.solves") == 7
        assert perf.get("poisson.newton_iterations") >= 7

    def test_sequential_solves_counted(self):
        dev = nfet(l_poly_nm=65, t_ox_nm=2.1, n_sub_cm3=1.2e18,
                   n_p_halo_cm3=1.5e18)
        sim = reference.DeviceSimulator(dev)
        perf.reset()
        sim.surface_potential_sweep(np.linspace(0.0, 1.0, 7))
        assert perf.get("poisson.solves") == 7
        assert perf.get("poisson.batch_solves") == 0

    def test_brentq_residuals_counted(self):
        from repro.scaling.roadmap import roadmap_nodes
        perf.reset()
        reference.SuperVthOptimizer(roadmap_nodes()[0]).solve_substrate()
        assert perf.get("optimizer.brentq_residual_evals") > 2
        assert perf.get("scaling.doping_batch_solves") == 0

    def test_scaling_batch_counters(self):
        from repro.scaling.roadmap import roadmap_nodes
        from repro.scaling.supervth import SuperVthOptimizer
        perf.reset()
        SuperVthOptimizer(roadmap_nodes()[0]).solve_substrate()
        assert perf.get("scaling.doping_batch_solves") == 1
        assert perf.get("scaling.doping_batch_points") == 1
        assert perf.get("scaling.doping_bisection_sweeps") > 2
        assert perf.get("scaling.device_eval_points") > 2
        assert perf.get("optimizer.brentq_residual_evals") == 0
