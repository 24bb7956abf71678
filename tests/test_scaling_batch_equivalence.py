"""Batch vs reference equivalence for the scaling-flow optimizers.

The batched design-space engine (:mod:`repro.scaling.batch`) must
reproduce the scalar flows of :mod:`repro.reference` to <= 1e-9
relative on every design knob and reported metric, across all roadmap
nodes, for both strategies.  These tests are what allows the batched
engine to be the only production path.
"""

import numpy as np
import pytest

from repro import reference
from repro.device.batch import ParameterStack, device_metrics
from repro.device.mosfet import Polarity, nfet, pfet
from repro.scaling.roadmap import roadmap_nodes
from repro.scaling.subvth import (
    SUB_VTH_EVAL_VDD,
    SubVthOptimizer,
    build_sub_vth_family,
    optimize_doping_for_length,
)
from repro.scaling.supervth import SuperVthOptimizer, build_super_vth_family

RTOL = 1e-9


def _assert_devices_match(batch_dev, seq_dev, vdd):
    assert batch_dev.geometry.l_poly_nm == pytest.approx(
        seq_dev.geometry.l_poly_nm, rel=RTOL)
    assert batch_dev.profile.n_sub_cm3 == pytest.approx(
        seq_dev.profile.n_sub_cm3, rel=RTOL)
    assert batch_dev.profile.n_p_halo_cm3 == pytest.approx(
        seq_dev.profile.n_p_halo_cm3, rel=RTOL, abs=0.0)
    assert batch_dev.ss_v_per_dec == pytest.approx(
        seq_dev.ss_v_per_dec, rel=RTOL)
    assert batch_dev.i_off_per_um(vdd) == pytest.approx(
        seq_dev.i_off_per_um(vdd), rel=RTOL)


class TestDeviceLayer:
    """The parameter-axis device layer against scalar MOSFET metrics."""

    def test_metrics_match_scalar_devices(self):
        rng = np.random.default_rng(7)
        n = 24
        l_poly = rng.uniform(25.0, 140.0, n)
        t_ox = rng.uniform(1.0, 3.5, n)
        n_sub = 10.0 ** rng.uniform(17.0, 18.8, n)
        ratio = rng.choice([0.0, 0.5, 1.5], n)
        is_nfet = rng.random(n) < 0.5
        stack = ParameterStack(l_poly_nm=l_poly, t_ox_nm=t_ox,
                               is_nfet=is_nfet)
        metrics = stack.metrics(n_sub, ratio * n_sub)
        ss = metrics.ss_v_per_dec
        ioff = metrics.i_off_per_um(0.9)
        ion = metrics.i_on_per_um(0.9)
        for i in range(n):
            build = nfet if is_nfet[i] else pfet
            dev = build(l_poly_nm=l_poly[i], t_ox_nm=t_ox[i],
                        n_sub_cm3=n_sub[i],
                        n_p_halo_cm3=ratio[i] * n_sub[i])
            assert ss[i] == pytest.approx(dev.ss_v_per_dec, rel=1e-12)
            assert ioff[i] == pytest.approx(dev.i_off_per_um(0.9), rel=1e-12)
            assert ion[i] == pytest.approx(dev.i_on_per_um(0.9), rel=1e-12)

    def test_vth_sat_cc_matches_scalar(self):
        dev = nfet(l_poly_nm=37, t_ox_nm=1.4, n_sub_cm3=4e18,
                   n_p_halo_cm3=2e18)
        metrics = device_metrics(37, 1.4, 4e18, 2e18)
        assert float(metrics.vth_sat_cc(0.9)) == pytest.approx(
            dev.vth_sat_cc(0.9), abs=2e-6)


class TestSuperVthEquivalence:
    @pytest.mark.parametrize("node", roadmap_nodes(include_130nm=True),
                             ids=lambda n: n.name)
    @pytest.mark.parametrize("polarity", [Polarity.NFET, Polarity.PFET])
    def test_optimize(self, node, polarity):
        width = 2.0 if polarity is Polarity.PFET else 1.0
        _assert_devices_match(
            SuperVthOptimizer(node, polarity, width_um=width).optimize(),
            reference.SuperVthOptimizer(node, polarity,
                                        width_um=width).optimize(),
            node.vdd_nominal)

    def test_family(self):
        fam_b = build_super_vth_family(include_130nm=True)
        fam_s = reference.build_super_vth_family(include_130nm=True)
        for des_b, des_s in zip(fam_b.designs, fam_s.designs):
            vdd = des_b.node.vdd_nominal
            _assert_devices_match(des_b.nfet, des_s.nfet, vdd)
            _assert_devices_match(des_b.pfet, des_s.pfet, vdd)


class TestSubVthEquivalence:
    @pytest.mark.parametrize("node", roadmap_nodes(),
                             ids=lambda n: n.name)
    def test_optimize_doping_for_length(self, node):
        l_poly = 1.7 * node.l_poly_nm
        for polarity in (Polarity.NFET, Polarity.PFET):
            batch_dev = optimize_doping_for_length(
                node, l_poly, polarity=polarity,
                vdd_leak=SUB_VTH_EVAL_VDD)
            seq_dev = reference.optimize_doping_for_length(
                node, l_poly, polarity=polarity,
                vdd_leak=SUB_VTH_EVAL_VDD)
            _assert_devices_match(batch_dev, seq_dev, SUB_VTH_EVAL_VDD)

    def test_optimizer_and_family(self):
        fam_b = build_sub_vth_family()
        fam_s = reference.build_sub_vth_family()
        for des_b, des_s in zip(fam_b.designs, fam_s.designs):
            _assert_devices_match(des_b.nfet, des_s.nfet, SUB_VTH_EVAL_VDD)
            _assert_devices_match(des_b.pfet, des_s.pfet, SUB_VTH_EVAL_VDD)

    def test_sweep_rows_match(self):
        node = roadmap_nodes()[1]
        rows_b = SubVthOptimizer(node, n_length_points=5).sweep()
        rows_s = reference.SubVthOptimizer(node, n_length_points=5).sweep()
        for (l_b, des_b, e_b), (l_s, des_s, e_s) in zip(rows_b, rows_s):
            assert l_b == l_s
            assert e_b == pytest.approx(e_s, rel=RTOL)
            _assert_devices_match(des_b.nfet, des_s.nfet, SUB_VTH_EVAL_VDD)


class TestWarmStartStability:
    def test_repeat_solve_within_flow_is_consistent(self):
        # Inside one flow invocation the second solve warm-starts from
        # the first solve's bracket; the warm-started root must land
        # within the equivalence budget of the cold one.
        from repro import perf
        from repro.scaling import batch as batch_mod
        from repro.scaling.subvth import sub_vth_ioff_target

        node = roadmap_nodes()[2]
        req = batch_mod.DopingSolveRequest(
            node=node, l_poly_nm=1.4 * node.l_poly_nm, halo_ratio=0.5,
            polarity=Polarity.NFET, width_um=1.0,
            ioff_target=sub_vth_ioff_target(node),
            vdd_leak=SUB_VTH_EVAL_VDD)
        batch_mod.reset_warm_starts()
        cold = batch_mod.solve_substrate_stack([req])
        before = perf.get("cache.bracket.hits")
        warm = batch_mod.solve_substrate_stack([req])
        assert perf.get("cache.bracket.hits") == before + 1
        assert bool(cold.feasible[0]) and bool(warm.feasible[0])
        assert warm.root_log10[0] == pytest.approx(
            cold.root_log10[0], rel=RTOL)

    def test_flow_entries_are_cache_state_independent(self):
        # Top-level flows start with a cold bracket cache, so the
        # optimum is bit-identical however often (or in whatever order)
        # flows run — `repro report --jobs N` depends on this.
        node = roadmap_nodes()[2]
        first = optimize_doping_for_length(node, 1.4 * node.l_poly_nm,
                                           vdd_leak=SUB_VTH_EVAL_VDD)
        second = optimize_doping_for_length(node, 1.4 * node.l_poly_nm,
                                            vdd_leak=SUB_VTH_EVAL_VDD)
        assert second.profile.n_sub_cm3 == first.profile.n_sub_cm3
        assert second.profile.n_p_halo_cm3 == first.profile.n_p_halo_cm3
