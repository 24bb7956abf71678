"""Batched circuit-evaluation kernels: vectorised VTC, gain and SNM.

Scalar circuit evaluation solves one current-balance root-find per
(input voltage, V_th perturbation) point — 101 scalar ``gain`` calls
per SNM extraction and one full extraction per Monte Carlo trial.
This module applies the same stacked-system trick as the batched
Poisson kernel one layer up: *all* points of a grid — every input
voltage of every Monte Carlo trial — are solved simultaneously by a
masked vectorised bisection on the inverter current balance

``I_N(V_in, V_out; dV_th,n) = I_P(V_in, V_out; dV_th,p)``

The balance is strictly increasing in ``V_out``, so each point's
bracket ``[0, V_dd]`` contains exactly one root; rail points (balance
already signed at a rail) retire from the active mask immediately and
every other point bisects until its bracket falls below ``xtol``,
mirroring the Poisson batch kernel's convergence mask.

Every lane may carry its own inverter: the entry points take one
:class:`~repro.circuit.inverter.Inverter` or a sequence of them, one
per lane, broadcast against the V_th offsets, so a whole set of
designs and supplies (a design-grid shard, a figure's nodes) shares
one extraction.  A bare inverter is the one-design case of the same
code path.  Each lane's scan grid, gain stencil, rail checks and
refinement depth depend on its own supply alone, so every lane
returns bitwise the answer it gets in a batch of its own.

Both devices of every point are evaluated in one fused call of the
EKV kernel (:func:`repro.device.ekv.ids`): card fields that every lane
shares stay ``(2, 1)`` columns, and only the per-point ``V_gs``,
``I_spec`` and ``V_th0`` + offset — plus V_dd and the card fields
that differ when the lanes carry different designs — are gathered, so
a balance evaluation costs a fixed ~45 numpy ops regardless of batch
size.

The gain = -1 crossings of :func:`noise_margins_batch` are located by
the same 101-point scan as the scalar path, then refined by staged
sub-grid bisection: each stage solves one batched VTC system for all
trials' candidate points at once, shrinking every bracket 64x, so a
whole Monte Carlo population costs a handful of batched solves instead
of thousands of scalar root-finds.

The scalar implementations live on as references in
:mod:`repro.reference`; agreement to <= 1e-9 relative is locked down
by ``tests/test_circuit_batch_equivalence.py``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .. import perf
from ..device import ekv
from ..errors import LostRegenerationError, ParameterError
from ..numerics import bisect_masked

#: Default bracket tolerance of the batched bisection [V].
XTOL_DEFAULT = 1e-10

#: Sub-intervals per crossing-refinement stage (each stage shrinks the
#: gain = -1 bracket by this factor with a single batched VTC solve).
_REFINE_INTERVALS = 64

#: Canonical lost-regeneration messages, indexed by ``lost_code - 1``.
#: The scalar SNM extraction raises them wrapped in the structured
#: :class:`repro.errors.LostRegenerationError` (via
#: :func:`lost_regeneration_error`), which is what Monte Carlo and the
#: service layer catch; every other :class:`ParameterError` is a
#: genuine defect and propagates.
LOST_REGENERATION_MESSAGES = (
    "VTC never reaches gain -1; supply too low for regeneration",
    "gain = -1 crossing hits the sweep boundary",
)


def lost_regeneration_error(code: int) -> LostRegenerationError:
    """The structured error for batch ``lost_code == code``.

    Pairs each code (``1`` — no gain = -1 point, ``2`` — crossing on
    the sweep boundary) with its canonical message from
    :data:`LOST_REGENERATION_MESSAGES`, so the batch and scalar paths
    share one error contract.
    """
    if code not in (1, 2):
        raise ParameterError("lost-regeneration code must be 1 or 2")
    return LostRegenerationError(LOST_REGENERATION_MESSAGES[code - 1],
                                 code=code)


def solve_balance_batch(balance, lo, hi, xtol: float = XTOL_DEFAULT
                        ) -> np.ndarray:
    """Gathered vectorised bisection on a monotone-increasing balance.

    Thin circuit-layer wrapper over :func:`repro.numerics.bisect_masked`
    preserving the ``circuit.balance_bisection_sweeps`` counter.
    ``balance(v, idx)`` maps gathered candidate outputs (plus their lane
    indices) to the signed balance at each live point; each bracket
    ``[lo_i, hi_i]`` must contain the sign change.  Points whose
    bracket is already below ``xtol`` (rails pinned by the caller)
    never enter the active set; the rest retire as their brackets
    converge.  Returns bracket midpoints.
    """
    if xtol <= 0.0:
        raise ParameterError("xtol must be positive")
    return bisect_masked(balance, lo, hi, xtol=xtol,
                         sweep_counter="circuit.balance_bisection_sweeps")


class _Designs:
    """The distinct inverters of one batch, their device cards stacked.

    ``fields[f]`` is card field ``f`` of every design as a
    ``(2, n_designs)`` array (NFET row first) and ``uniform[f]`` says
    whether every design carries the same value; ``vdd`` holds each
    design's supply [V].
    """

    def __init__(self, inverters) -> None:
        self.vdd = np.array([inv.vdd for inv in inverters], dtype=float)
        cards = ([inv.nfet.iv.card for inv in inverters],
                 [inv.pfet.iv.card for inv in inverters])
        self.fields = [np.array([[card[f] for card in row] for row in cards])
                       for f in range(len(ekv.DeviceCard._fields))]
        self.uniform = [bool(np.all(value == value[:, :1]))
                        for value in self.fields]
        self.uniform_vdd = bool(np.all(self.vdd == self.vdd[0]))


class _Lanes(NamedTuple):
    """Per-lane designs of a batch: ``designs`` plus each lane's index."""

    designs: _Designs
    which: np.ndarray

    def vdd(self):
        """Each lane's supply [V]; a float when every design shares it."""
        if self.designs.uniform_vdd:
            return float(self.designs.vdd[0])
        return self.designs.vdd[self.which]


def _lanes(inverter) -> _Lanes:
    """Normalise an ``Inverter`` or a per-lane sequence of them.

    A bare inverter is the one-design batch (``which`` is a 0-d zero
    that broadcasts against every lane); a sequence is a 1-D lane axis
    whose repeated objects share one design.
    """
    if isinstance(inverter, _Lanes):
        return inverter
    if not isinstance(inverter, Sequence):
        return _Lanes(_Designs((inverter,)), np.zeros((), dtype=np.intp))
    if not inverter:
        raise ParameterError("need at least one inverter")
    distinct = {id(inv): inv for inv in inverter}
    slot = {key: design for design, key in enumerate(distinct)}
    which = np.array([slot[id(inv)] for inv in inverter], dtype=np.intp)
    return _Lanes(_Designs(list(distinct.values())), which)


class _VtcSystem:
    """Fused NFET+PFET balance evaluator for one batch of VTC points.

    Both legs go through the EKV kernel :func:`repro.device.ekv.ids`
    in one call.  Card fields that every lane shares form a two-row
    card of ``(2, 1)`` columns (NFET row first) and are never
    gathered; the per-point inputs — ``V_gs``, ``I_spec`` (fixed per
    point, so computed once here), ``V_th0`` plus offset and, when the
    lanes carry different designs, V_dd and every card field that
    differs — live in one ``(k, 2, n)`` block that a gathered balance
    call takes with a single ``np.take``; the card's per-lane fields
    are views of that block.
    """

    def __init__(self, lanes: _Lanes, vin: np.ndarray,
                 dvth_n: np.ndarray, dvth_p: np.ndarray) -> None:
        lanes = _lanes(lanes)
        designs = lanes.designs
        which = np.broadcast_to(lanes.which, vin.shape)
        vdd = self.vdd = lanes.vdd()
        names = ekv.DeviceCard._fields
        fields = {name: value[:, :1] if uniform else value[:, which]
                  for name, value, uniform in zip(names, designs.fields,
                                                  designs.uniform)}
        self._vdd_row = None if np.isscalar(vdd) else 3
        first = 3 if self._vdd_row is None else 4
        self._rows = tuple(
            (name, first + i) for i, name in enumerate(
                name for name, uniform in zip(names, designs.uniform)
                if not uniform and name != "vth0_v"))
        self.lanes = np.empty((first + len(self._rows), 2, vin.size))
        for row, (vgs, dvth) in enumerate(((vin, dvth_n),
                                           (vdd - vin, dvth_p))):
            card = ekv.DeviceCard(*(
                fields[name][row, 0] if uniform else fields[name][row]
                for name, uniform in zip(names, designs.uniform)))
            self.lanes[0, row] = vgs
            self.lanes[1, row] = ekv.specific_current_a(card, vgs)
            self.lanes[2, row] = card.vth0_v + dvth
        if self._vdd_row is not None:
            self.lanes[self._vdd_row] = vdd
        for name, row in self._rows:
            self.lanes[row] = fields[name]
        self.card = ekv.DeviceCard(**{
            **fields, "vth0_v": self.lanes[2],
            **{name: self.lanes[row] for name, row in self._rows}})

    def balance(self, vout: np.ndarray, idx=None) -> np.ndarray:
        """``I_N - I_P`` at each point's candidate output voltage.

        With ``idx`` (the root-solve core's gathered-lane indices:
        sorted and distinct) only those points' legs are evaluated; the
        arithmetic is elementwise, so the gathered result matches the
        corresponding lanes of a full evaluation bitwise.  An ``idx``
        naming every lane is the identity and skips the gather.
        """
        lanes, card = self.lanes, self.card
        if idx is not None and idx.shape[0] < lanes.shape[2]:
            lanes = np.take(lanes, idx, axis=2)
            card = card._replace(vth0_v=lanes[2], **{
                name: lanes[row] for name, row in self._rows})
        vdd = self.vdd if self._vdd_row is None else lanes[self._vdd_row, 1]
        current = ekv.ids(card, lanes[0], np.array((vout, vdd - vout)),
                          ispec_a=lanes[1])
        return current[0] - current[1]


def _broadcast_inputs(inverter, *arrays):
    """``(lanes, flat inputs, shape)`` with the lanes' designs and every
    input broadcast together and raveled."""
    lanes = _lanes(inverter)
    which, *values = np.broadcast_arrays(
        lanes.which, *(np.asarray(a, dtype=float) for a in arrays))
    return (_Lanes(lanes.designs, which.ravel()),
            [value.ravel() for value in values], which.shape)


def solve_vtc_batch(inverter, vin, dvth_n=0.0, dvth_p=0.0,
                    xtol: float = XTOL_DEFAULT):
    """Static output voltages for whole arrays of VTC points [V].

    Solves ``I_N(V_in, V_out) = I_P(V_in, V_out)`` for every
    (``vin``, ``dvth_n``, ``dvth_p``) triple at once (inputs broadcast
    together); each element is the batched equivalent of
    ``Inverter.vtc_point`` on a V_th-offset copy of the devices.
    ``inverter`` is one :class:`~repro.circuit.inverter.Inverter` or a
    sequence of them, one per lane, broadcast like the other inputs;
    every lane's answer is bitwise the one it gets alone.  Scalar
    inputs return a float.
    """
    lanes, (flat, dn, dp), shape = _broadcast_inputs(inverter, vin, dvth_n,
                                                     dvth_p)
    vdd = lanes.vdd()
    if np.any((flat < 0.0) | (flat > vdd)):
        raise ParameterError(
            f"vin outside the supply range [0, {vdd}]" if np.isscalar(vdd)
            else "vin outside its lane's supply range [0, V_dd]"
        )
    system = _VtcSystem(lanes, flat, dn, dp)
    n = flat.size
    f_lo = system.balance(np.zeros(n))
    f_hi = system.balance(np.broadcast_to(vdd, (n,)).astype(float))
    at_lo = f_lo >= 0.0
    at_hi = (f_hi <= 0.0) & ~at_lo
    # Rail points are pinned by collapsing their bracket, which keeps
    # them out of the bisection's active mask from sweep zero.
    lo = np.where(at_hi, vdd, 0.0)
    hi = np.where(at_lo, 0.0, vdd)
    perf.bump("circuit.vtc_batch_solves")
    perf.bump("circuit.vtc_batch_points", n)
    vout = solve_balance_batch(system.balance, lo, hi, xtol=xtol)
    if shape == ():
        return float(vout[0])
    return vout.reshape(shape)


def gain_batch(inverter, vin, dvth_n=0.0, dvth_p=0.0,
               h_v: float | None = None, xtol: float = XTOL_DEFAULT):
    """Small-signal gain dV_out/dV_in for arrays of VTC points.

    Uses the same finite-difference stencil (step ``h_v`` [V],
    defaulting to ``V_dd * 1e-4`` of each lane, clamped at the rails)
    as ``Inverter.gain``, evaluated from one batched VTC solve over all
    ``2 * n`` stencil endpoints.  ``inverter`` is one inverter or a
    per-lane sequence, as in :func:`solve_vtc_batch`.
    """
    lanes, (flat, dn, dp), shape = _broadcast_inputs(inverter, vin, dvth_n,
                                                     dvth_p)
    gains = _gain_flat(lanes, flat, dn, dp, h_v, xtol)
    if shape == ():
        return float(gains[0])
    return gains.reshape(shape)


def _gain_flat(lanes: _Lanes, vin: np.ndarray, dvth_n: np.ndarray,
               dvth_p: np.ndarray, h: float | None,
               xtol: float) -> np.ndarray:
    vdd = lanes.vdd()
    step = (vdd * 1e-4) if h is None else h
    lo = np.maximum(vin - step, 0.0)
    hi = np.minimum(vin + step, vdd)
    if np.any(hi <= lo):
        raise ParameterError("gain stencil collapsed; vin at a corner?")
    vouts = solve_vtc_batch(
        _Lanes(lanes.designs, np.concatenate([lanes.which, lanes.which])),
        np.concatenate([hi, lo]),
        np.concatenate([dvth_n, dvth_n]),
        np.concatenate([dvth_p, dvth_p]),
        xtol=xtol,
    )
    m = vin.size
    return (vouts[:m] - vouts[m:]) / (hi - lo)


@dataclass(frozen=True)
class BatchNoiseMargins:
    """Per-trial noise-margin arrays of a batched SNM extraction.

    Attributes mirror :class:`repro.circuit.snm.NoiseMargins`
    elementwise; trials that lost regeneration carry NaN in every
    voltage field and a nonzero ``lost_code``.

    Attributes
    ----------
    v_il / v_ih / v_ol / v_oh / nm_low / nm_high:
        Noise-margin voltages per trial [V].
    lost_code:
        0 = regenerative, 1 = the VTC never reaches gain -1,
        2 = a gain = -1 crossing hits the sweep boundary (the indices
        of :data:`LOST_REGENERATION_MESSAGES`, offset by one).
    """

    v_il: np.ndarray
    v_ih: np.ndarray
    v_ol: np.ndarray
    v_oh: np.ndarray
    nm_low: np.ndarray
    nm_high: np.ndarray
    lost_code: np.ndarray

    @property
    def lost(self) -> np.ndarray:
        """Boolean mask of trials that lost regeneration."""
        return self.lost_code > 0

    @property
    def snm(self) -> np.ndarray:
        """min(NM_L, NM_H) per trial (NaN where regeneration is lost)."""
        return np.minimum(self.nm_low, self.nm_high)


def _refine_stages(width: np.ndarray, xtol: float) -> np.ndarray:
    """Refinement stages each bracket of ``width`` [V] needs to fall
    below ``xtol``: ``ceil(log_64(width / xtol))``, at least one."""
    unique, inverse = np.unique(width, return_inverse=True)
    stages = np.array([max(1, int(math.ceil(
        math.log(max(float(w), xtol) / xtol) / math.log(_REFINE_INTERVALS))))
        for w in unique], dtype=int)
    return stages[inverse]


def _refine_crossings(lanes: _Lanes, a: np.ndarray, b: np.ndarray,
                      sign: np.ndarray, dvth_n: np.ndarray,
                      dvth_p: np.ndarray, xtol: float) -> np.ndarray:
    """Shrink each gain = -1 bracket ``[a, b]`` below ``xtol``.

    ``sign`` is +1 where ``gain + 1`` crosses downwards inside the
    bracket (the V_IL side) and -1 where it crosses upwards (V_IH);
    multiplying by it folds both cases into "first negative grid
    point".  Every stage evaluates all live jobs' sub-grids in a single
    batched VTC solve and keeps the first sign-change sub-interval.
    Each job runs the stages its own bracket needs and then retires,
    so its root never depends on its batch-mates.
    """
    n_jobs = a.size
    if n_jobs == 0:
        return a
    frac = np.linspace(0.0, 1.0, _REFINE_INTERVALS + 1)
    stages = _refine_stages(b - a, xtol)
    a, b = a.copy(), b.copy()
    for stage in range(int(stages.max())):
        live = np.flatnonzero(stages > stage)
        a_live, b_live = a[live], b[live]
        grid = a_live[:, None] + frac[None, :] * (b_live - a_live)[:, None]
        gains = _gain_flat(
            _Lanes(lanes.designs, np.repeat(lanes.which[live], frac.size)),
            grid.ravel(), np.repeat(dvth_n[live], frac.size),
            np.repeat(dvth_p[live], frac.size), None, xtol,
        ).reshape(live.size, frac.size)
        folded = (gains + 1.0) * sign[live, None]
        # First negative grid point; the bracket invariant guarantees
        # folded[:, 0] >= 0 > folded[:, -1], the clip guards the
        # degenerate bracket-narrower-than-gain-noise case.
        idx = np.clip(np.argmax(folded < 0.0, axis=1),
                      1, _REFINE_INTERVALS)
        a[live] = np.take_along_axis(grid, (idx - 1)[:, None], axis=1).ravel()
        b[live] = np.take_along_axis(grid, idx[:, None], axis=1).ravel()
    return 0.5 * (a + b)


def noise_margins_batch(inverter, dvth_n=0.0, dvth_p=0.0, n_scan: int = 101,
                        xtol: float = XTOL_DEFAULT) -> BatchNoiseMargins:
    """Gain = -1 noise margins for whole arrays of V_th perturbations.

    The batched equivalent of running ``noise_margins`` on a
    V_th-offset copy of the inverter per trial: the same 101-point
    scan grid locates each trial's two sign-change brackets, staged
    sub-grid bisection refines them below ``xtol``, and one more
    batched solve reads off ``V_OL``/``V_OH``.  Trials whose VTC never
    reaches gain -1 (or only at the sweep boundary) are flagged in
    ``lost_code`` instead of raising.

    ``inverter`` is one inverter or a sequence of them, one per lane,
    broadcast against ``dvth_n``/``dvth_p``: a whole set of designs
    shares one extraction, and every lane's margins are bitwise the
    ones it gets alone.
    """
    if n_scan < 5:
        raise ParameterError("need at least 5 scan points")
    lanes, (dn, dp), shape = _broadcast_inputs(inverter, dvth_n, dvth_p)
    trials = dn.size
    margin = lanes.designs.vdd * 1e-3
    vins = np.linspace(margin, lanes.designs.vdd - margin, n_scan,
                       axis=-1)[lanes.which]

    gains = _gain_flat(_Lanes(lanes.designs, np.repeat(lanes.which, n_scan)),
                       vins.ravel(), np.repeat(dn, n_scan),
                       np.repeat(dp, n_scan), None,
                       xtol).reshape(trials, n_scan)
    below = (gains + 1.0) < 0.0
    has_crossing = below.any(axis=1)
    first = np.argmax(below, axis=1)
    last = n_scan - 1 - np.argmax(below[:, ::-1], axis=1)
    lost_code = np.zeros(trials, dtype=int)
    lost_code[~has_crossing] = 1
    boundary = has_crossing & ((first == 0) | (last == n_scan - 1))
    lost_code[boundary] = 2
    ok = np.flatnonzero(lost_code == 0)

    nan = np.full(trials, np.nan)
    v_il, v_ih = nan.copy(), nan.copy()
    v_ol, v_oh = nan.copy(), nan.copy()
    k = ok.size
    if k:
        first_ok, last_ok = first[ok], last[ok]
        a = np.concatenate([vins[ok, first_ok - 1], vins[ok, last_ok]])
        b = np.concatenate([vins[ok, first_ok], vins[ok, last_ok + 1]])
        sign = np.concatenate([np.ones(k), -np.ones(k)])
        jobs = _Lanes(lanes.designs, np.concatenate([lanes.which[ok]] * 2))
        dn2 = np.concatenate([dn[ok], dn[ok]])
        dp2 = np.concatenate([dp[ok], dp[ok]])
        roots = _refine_crossings(jobs, a, b, sign, dn2, dp2, xtol)
        v_il[ok] = roots[:k]
        v_ih[ok] = roots[k:]
        vouts = solve_vtc_batch(jobs, roots, dn2, dp2, xtol=xtol)
        v_oh[ok] = vouts[:k]
        v_ol[ok] = vouts[k:]
    perf.bump("circuit.snm_batch_extractions", trials)
    return BatchNoiseMargins(
        v_il=v_il.reshape(shape) if shape else v_il,
        v_ih=v_ih.reshape(shape) if shape else v_ih,
        v_ol=v_ol.reshape(shape) if shape else v_ol,
        v_oh=v_oh.reshape(shape) if shape else v_oh,
        nm_low=(v_il - v_ol).reshape(shape) if shape else v_il - v_ol,
        nm_high=(v_oh - v_ih).reshape(shape) if shape else v_oh - v_ih,
        lost_code=lost_code.reshape(shape) if shape else lost_code,
    )
