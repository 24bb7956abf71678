"""Lane independence of the batched VTC/SNM kernel across designs.

``solve_vtc_batch`` and ``noise_margins_batch`` accept one inverter or a
sequence of them, one per lane.  The contract pinned here is bitwise:
every lane of a mixed-design batch — any designs, supplies, V_th
offsets, order or subset — returns exactly the bits it gets from a
one-design call.  That is what lets the design grid and the report
stack their SNMs without moving a single stored value.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import (
    Inverter,
    noise_margins,
    noise_margins_batch,
    noise_margins_stack,
    solve_vtc_batch,
)
from repro.circuit.batch import XTOL_DEFAULT, _refine_stages
from repro.device import nfet, pfet
from repro.errors import LostRegenerationError, ParameterError
from repro.variability.rdf import rdf_sigma_vth

FIELDS = ("v_il", "v_ih", "v_ol", "v_oh", "nm_low", "nm_high", "lost_code")

#: Three device pairs that differ in every card field the balance reads.
PAIRS = tuple(
    (nfet(l_poly_nm=l, t_ox_nm=tox, n_sub_cm3=n_sub, n_p_halo_cm3=halo),
     pfet(l_poly_nm=l, t_ox_nm=tox, n_sub_cm3=n_sub, n_p_halo_cm3=halo,
          width_um=2.0))
    for l, tox, n_sub, halo in ((65, 2.1, 1.2e18, 1.5e18),
                                (45, 1.7, 2.4e18, 1.4e18),
                                (90, 2.5, 8.0e17, 1.2e18)))


def _lane_fields(batch, lane):
    return [np.asarray(getattr(batch, f))[lane] for f in FIELDS]


def _assert_lanes_match(batch, singles, lanes):
    for pos, lane in enumerate(lanes):
        for field, got, want in zip(FIELDS, _lane_fields(batch, pos),
                                    _lane_fields(singles[lane], 0)):
            assert np.array_equal(got, want, equal_nan=True), (lane, field)


class TestRefineStagesPerJob:
    def test_supplies_need_different_stage_counts(self):
        widths = np.array([0.998 * v / 100 for v in (0.16, 0.18)])
        assert list(_refine_stages(widths, XTOL_DEFAULT)) == [4, 5]

    def test_mixed_supply_batch_equals_one_design_calls(self):
        """A 0.16 V lane refines 4 stages even next to a 0.18 V lane
        that needs 5; a batch-wide stage count would move its bits."""
        inverters = [Inverter(*PAIRS[0], vdd=v) for v in (0.16, 0.18)]
        batch = noise_margins_batch(inverters)
        singles = [noise_margins_batch(inv) for inv in inverters]
        assert not batch.lost.any()
        _assert_lanes_match(batch, singles, range(2))


class TestDesignLanes:
    def test_bare_inverter_is_the_one_design_case(self, inverter_sub):
        dn = np.linspace(-0.03, 0.03, 5)
        one = noise_margins_batch(inverter_sub, dn, 0.0)
        seq = noise_margins_batch([inverter_sub] * 5, dn, 0.0)
        for field in FIELDS:
            assert np.array_equal(getattr(one, field), getattr(seq, field))

    def test_lanes_broadcast_against_offsets(self, inverter_sub,
                                             inverter_nominal):
        dn = np.array([[0.0], [0.02], [-0.02]])
        batch = noise_margins_batch([inverter_sub, inverter_nominal], dn)
        assert batch.v_il.shape == (3, 2)
        alone = noise_margins_batch(inverter_nominal, dn[:, 0])
        assert np.array_equal(batch.v_il[:, 1], alone.v_il)

    def test_vin_checked_against_each_lanes_supply(self, inverter_sub,
                                                   inverter_nominal):
        with pytest.raises(ParameterError):
            solve_vtc_batch([inverter_sub, inverter_nominal], [0.5, 0.5])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ParameterError):
            noise_margins_batch([])


class TestNoiseMarginsStack:
    def test_matches_one_design_calls(self, super_family):
        inverters = [d.inverter(0.25) for d in super_family.designs]
        stacked = noise_margins_stack(inverters)
        assert stacked == [noise_margins(inv) for inv in inverters]

    def test_lost_lane_raises_its_code(self, nfet90, pfet90):
        inverters = [Inverter(nfet90, pfet90, 0.25),
                     Inverter(nfet90, pfet90, 0.04)]
        with pytest.raises(LostRegenerationError) as err:
            noise_margins_stack(inverters)
        assert err.value.code == 1


_lane = st.tuples(
    st.integers(min_value=0, max_value=len(PAIRS) - 1),
    st.sampled_from((0.10, 0.12, 0.16, 0.18, 0.25, 0.30, 0.45, 0.7, 1.2))
    | st.floats(min_value=0.10, max_value=1.2),
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def _batches(draw):
    lanes = draw(st.lists(_lane, min_size=1, max_size=5))
    order = draw(st.permutations(range(len(lanes))))
    subset = draw(st.lists(st.integers(min_value=0,
                                       max_value=len(lanes) - 1),
                           min_size=1, max_size=len(lanes), unique=True))
    return lanes, list(order), subset


class TestLaneIndependenceProperty:
    @settings(max_examples=12, deadline=None)
    @given(drawn=_batches())
    def test_every_lane_is_bitwise_its_one_design_answer(self, drawn):
        lanes, order, subset = drawn
        shared: dict = {}
        inverters, dn, dp, vin = [], [], [], []
        for pair, vdd, z_n, z_p, frac in lanes:
            # Equal draws share one Inverter object, as in the grid.
            inv = shared.setdefault((pair, vdd), Inverter(*PAIRS[pair], vdd))
            inverters.append(inv)
            dn.append(z_n * rdf_sigma_vth(inv.nfet))
            dp.append(z_p * rdf_sigma_vth(inv.pfet))
            vin.append(frac * vdd)
        dn, dp, vin = np.array(dn), np.array(dp), np.array(vin)
        singles = [noise_margins_batch(inv, a, b)
                   for inv, a, b in zip(inverters, dn, dp)]
        for picked in (order, subset):
            batch = noise_margins_batch([inverters[i] for i in picked],
                                        dn[picked], dp[picked])
            _assert_lanes_match(batch, singles, picked)
            vout = solve_vtc_batch([inverters[i] for i in picked],
                                   vin[picked], dn[picked], dp[picked])
            for pos, lane in enumerate(picked):
                alone = solve_vtc_batch(inverters[lane], vin[lane],
                                        dn[lane], dp[lane])
                assert np.array_equal(vout[pos], alone), lane
