"""Precomputed design-space metric grids: fill, spill, reload.

The service's warm tier is a set of dense metric tensors over the
design-space axes — technology node (categorical), drawn gate length
(as a multiple of the node's etched length), log10 of the leakage
target, and supply voltage.  One **shard** is one (node, L_poly)
pair: a shard resets the solver warm starts, runs one batched doping
root-solve over every leakage target and both polarities
(:func:`repro.scaling.batch.optimize_doping_groups`), then evaluates
all served metrics over the V_dd axis — the NFET curves through one
:meth:`repro.device.batch.ParameterStack.from_devices` stack, the SNM
of every (design, V_dd) inverter through one stacked extraction, the
other circuit figures through the same helpers the exact tier uses.

Because every shard starts from :func:`reset_warm_starts` and shards
are assembled in spec order, the tensors are byte-identical however
the shards are distributed over worker processes — the same
``reset_warm_starts()`` contract that makes ``repro report --jobs N``
order-independent, asserted by ``tests/test_service_grid.py``.

Grids spill to the disk cache as ``grid-{grid_id}-{schema_hash}.npz``
(:func:`repro.cache.grid_path`): the axes digest names the spec, the
model schema hash versions the physics, so editing any model source
orphans old tensors exactly like stale family entries.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .. import perf
from ..cache import grid_path, model_schema_hash
from ..device.batch import ParameterStack
from ..device.mosfet import Polarity
from ..errors import OptimizationError, ParameterError
from ..scaling.batch import optimize_doping_groups, reset_warm_starts
from ..scaling.roadmap import PRIMARY_NODES, node_by_name
from ..scaling.strategy import DeviceDesign
from ..scaling.subvth import HALO_RATIO_GRID, SS_TIE_TOLERANCE
from ..scaling.supervth import PFET_WIDTH_RATIO
from ..circuit.energy import chain_energy_sweep
from .contract import ALL_METRICS, DESIGN_METRICS, VDD_METRICS
from .exact import _vmin_v, snm_mv_lanes

__all__ = ["GridSpec", "Grid", "build_grid", "fill_shard",
           "store_grid", "load_grid"]


@dataclass(frozen=True)
class GridSpec:
    """Axes of one precomputed design-space grid.

    Attributes
    ----------
    nodes:
        Technology node labels (categorical axis; the surrogate never
        interpolates across nodes).
    l_ratios:
        Drawn gate length as multiples of each node's etched length
        (dimensionless; ``l_poly_nm = ratio * node.l_poly_nm`` [nm]).
    log10_ioff:
        log10 of the leakage target [A/um] the doping is solved for.
    vdd_v:
        Supply voltages [V] the V_dd-axis metrics are evaluated at.
    """

    nodes: tuple[str, ...]
    l_ratios: tuple[float, ...]
    log10_ioff: tuple[float, ...]
    vdd_v: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ParameterError("grid needs at least one node")
        for name, axis in (("l_ratios", self.l_ratios),
                           ("log10_ioff", self.log10_ioff),
                           ("vdd_v", self.vdd_v)):
            if len(axis) < 2:
                raise ParameterError(f"{name} needs >= 2 points")
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ParameterError(f"{name} must be strictly increasing")
        if self.l_ratios[0] < 1.0:
            raise ParameterError("l_ratios below 1.0 draw the gate "
                                 "shorter than the node's etched length")
        if self.vdd_v[0] <= 0.0:
            raise ParameterError("vdd_v must be positive")

    @classmethod
    def default(cls) -> "GridSpec":
        """The full serving grid over the paper's four primary nodes.

        Axis spacings (0.05 in L ratio, ~0.19 decade in leakage
        target, 20 mV in supply) match the densities at which the
        surrogate's measured worst-case error stays within
        ``SURROGATE_TOL_REL`` on every served metric.  Filling it is
        an offline job — minutes with ``repro grid build --jobs N``.
        """
        return cls(
            nodes=tuple(PRIMARY_NODES),
            l_ratios=tuple(round(1.0 + 0.05 * i, 4) for i in range(21)),
            log10_ioff=tuple(round(-11.5 + 2.5 * i / 13.0, 6)
                             for i in range(14)),
            vdd_v=tuple(round(0.16 + 0.02 * i, 4) for i in range(18)),
        )

    @classmethod
    def quick(cls) -> "GridSpec":
        """A small grid for tests and the CI smoke job: two nodes over
        a narrow design-space window, but at the same axis densities
        as :meth:`default` so the pchip densify pass engages and the
        recorded error bounds stay within ``SURROGATE_TOL_REL``.
        Fills in seconds, not minutes."""
        return cls(
            nodes=("90nm", "65nm"),
            l_ratios=tuple(round(1.5 + 0.05 * i, 4) for i in range(11)),
            log10_ioff=(-10.6, -10.4, -10.2, -10.0),
            vdd_v=(0.24, 0.26, 0.28, 0.30, 0.32),
        )

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """Tensor shape ``(nodes, l_ratios, targets, vdds)``."""
        return (len(self.nodes), len(self.l_ratios),
                len(self.log10_ioff), len(self.vdd_v))

    def grid_id(self) -> str:
        """Axes digest naming this spec in cache filenames."""
        payload = json.dumps(self.to_meta(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def to_meta(self) -> dict:
        """JSON-serialisable axes record (round-trips via
        :meth:`from_meta`; float axes serialise via ``repr`` so the
        round trip is bitwise)."""
        return {
            "nodes": list(self.nodes),
            "l_ratios": list(self.l_ratios),
            "log10_ioff": list(self.log10_ioff),
            "vdd_v": list(self.vdd_v),
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "GridSpec":
        return cls(
            nodes=tuple(str(n) for n in meta["nodes"]),
            l_ratios=tuple(float(x) for x in meta["l_ratios"]),
            log10_ioff=tuple(float(x) for x in meta["log10_ioff"]),
            vdd_v=tuple(float(x) for x in meta["vdd_v"]),
        )


@dataclass
class Grid:
    """Filled metric tensors for one :class:`GridSpec`.

    ``tensors`` maps each V_dd metric to a ``(N, L, T, V)`` array and
    each per-design metric to ``(N, L, T)``; NaN cells mark points
    where the model reports no answer (lost regeneration, boundary
    V_min) or the doping solve found no feasible candidate.
    ``error_bounds_rel`` is attached after surrogate validation
    (:func:`repro.service.surrogate.validate_surrogate`).
    """

    spec: GridSpec
    schema_hash: str
    tensors: dict[str, np.ndarray]
    error_bounds_rel: dict[str, float] | None = field(default=None)


def _shard_designs(node, l_poly_nm: float,
                   targets: tuple[float, ...]) -> list[DeviceDesign | None]:
    """Optimised designs for every leakage target of one shard.

    One batched root-solve covers the whole ``2 x targets x halo``
    stack; when any target is infeasible the call degrades to
    per-target solves so the feasible rows still fill (cold lanes are
    independent, so the per-target answers are bitwise the batched
    ones).  Infeasible targets yield None (a NaN grid row).
    """
    def groups_for(subset: tuple[float, ...]):
        return ([(l_poly_nm, Polarity.NFET, 1.0, t, node.vdd_nominal)
                 for t in subset]
                + [(l_poly_nm, Polarity.PFET, PFET_WIDTH_RATIO, t,
                    node.vdd_nominal) for t in subset])

    try:
        devices = optimize_doping_groups(node, groups_for(targets),
                                         HALO_RATIO_GRID, SS_TIE_TOLERANCE)
    except OptimizationError:
        designs: list[DeviceDesign | None] = []
        for target in targets:
            try:
                pair = optimize_doping_groups(
                    node, groups_for((target,)),
                    HALO_RATIO_GRID, SS_TIE_TOLERANCE)
            except OptimizationError:
                designs.append(None)
                continue
            designs.append(DeviceDesign(
                node=node, nfet=pair[0], pfet=pair[1],
                strategy="service", vdd=node.vdd_nominal))
        return designs
    n_targets = len(targets)
    return [DeviceDesign(node=node, nfet=devices[i],
                         pfet=devices[n_targets + i],
                         strategy="service", vdd=node.vdd_nominal)
            for i in range(n_targets)]


def fill_shard(spec: GridSpec, node_name: str,
               l_ratio: float) -> dict[str, np.ndarray]:
    """Fill one (node, L_poly) shard of the grid.

    Solves the doping for every leakage target [A/um] at drawn length
    ``l_ratio * node.l_poly_nm`` [nm], then evaluates every served
    metric over the V_dd axis [V]: leakage/drive/threshold through one
    parameter-axis device stack, SNM through one stacked extraction
    over every (design, V_dd) inverter (the exact tier's
    :func:`~repro.service.exact.snm_mv_lanes`), energy through the
    vectorised Eq. 7 sweep, delay/V_min through the exact tier's
    scalar helpers.
    Starts from :func:`reset_warm_starts`, so the result is a pure
    function of (spec, node, ratio) — the sharding determinism
    contract.
    """
    node = node_by_name(node_name)
    l_poly_nm = l_ratio * node.l_poly_nm
    targets = tuple(10.0 ** t for t in spec.log10_ioff)
    vdd = np.asarray(spec.vdd_v, dtype=float)
    n_targets, n_vdd = len(targets), vdd.shape[0]

    reset_warm_starts()
    designs = _shard_designs(node, l_poly_nm, targets)

    out = {metric: np.full((n_targets, n_vdd), np.nan)
           for metric in VDD_METRICS}
    out.update({metric: np.full(n_targets, np.nan)
                for metric in DESIGN_METRICS})

    solved = [(i, d) for i, d in enumerate(designs) if d is not None]
    if solved:
        # NFET device curves for the whole shard in one stacked pass:
        # lanes are the solved targets, broadcast against the V_dd row.
        stack = ParameterStack.from_devices([d.nfet for _i, d in solved])
        metrics = stack.metrics(
            np.array([d.nfet.profile.n_sub_cm3 for _i, d in solved]),
            np.array([d.nfet.profile.n_p_halo_cm3 for _i, d in solved]),
        )
        rows = [i for i, _d in solved]
        out["ioff_a_per_um"][rows] = metrics.i_off_per_um(vdd[:, None]).T
        out["ion_a_per_um"][rows] = metrics.i_on_per_um(vdd[:, None]).T
        out["vth_v"][rows] = metrics.vth(vdd[:, None]).T

        # Every (design, V_dd) inverter of the shard in one stacked
        # SNM extraction.
        out["snm_mv"][rows] = snm_mv_lanes([
            d.inverter(float(v)) for _i, d in solved for v in vdd
        ]).reshape(len(solved), n_vdd)

    for i, design in solved:
        out["energy_fj_per_op"][i] = 1e15 * chain_energy_sweep(
            design.inverter(float(vdd[0])), vdd)
        for j in range(n_vdd):
            v = float(vdd[j])
            out["delay_ps"][i, j] = 1e12 * design.nfet.intrinsic_delay(v)
        out["ss_mv_per_dec"][i] = design.nfet.ss_mv_per_dec
        out["vmin_v"][i] = _vmin_v(design)

    perf.bump("service.grid.shards")
    perf.bump("service.grid.points", n_targets * n_vdd)
    return out


def _fill_shard_worker(args: tuple[GridSpec, str, float]):
    """Worker body for the sharded grid fill.

    Module-level so it pickles into :class:`ProcessPoolExecutor`
    workers; mirrors :func:`repro.cli._run_one_worker` — counters are
    reset first (a forked worker inherits the parent's totals) and the
    shard's snapshot rides back for the parent to merge.
    """
    spec, node_name, l_ratio = args
    perf.reset()
    payload = fill_shard(spec, node_name, l_ratio)
    return payload, perf.snapshot()


def build_grid(spec: GridSpec, jobs: int = 1) -> Grid:
    """Fill every tensor of ``spec``, optionally sharded over processes.

    Shards — (node, L_poly ratio) pairs — are submitted in spec order
    and assembled in spec order (``pool.map`` preserves submission
    order), and each shard resets its own warm starts, so the tensors
    are byte-identical for any ``jobs`` value.
    """
    if jobs < 1:
        raise ParameterError("jobs must be >= 1")
    shards = [(spec, name, ratio)
              for name in spec.nodes for ratio in spec.l_ratios]
    if jobs == 1 or len(shards) == 1:
        payloads = [fill_shard(*args) for args in shards]
    else:
        from concurrent.futures import ProcessPoolExecutor
        workers = min(jobs, len(shards))
        payloads = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for payload, counts in pool.map(_fill_shard_worker, shards):
                perf.merge(counts)
                payloads.append(payload)

    n_nodes, n_ratios, n_targets, n_vdd = spec.shape
    tensors = {metric: np.full((n_nodes, n_ratios, n_targets, n_vdd),
                               np.nan)
               for metric in VDD_METRICS}
    tensors.update({metric: np.full((n_nodes, n_ratios, n_targets), np.nan)
                    for metric in DESIGN_METRICS})
    for flat, payload in enumerate(payloads):
        node_idx, ratio_idx = divmod(flat, n_ratios)
        for metric in ALL_METRICS:
            tensors[metric][node_idx, ratio_idx] = payload[metric]
    return Grid(spec=spec, schema_hash=model_schema_hash(),
                tensors=tensors)


def store_grid(grid: Grid):
    """Spill a grid into the disk cache; returns the path or None.

    The ``.npz`` bundles every tensor plus a JSON meta record (axes,
    schema hash, recorded error bounds, wire-protocol version).  A
    no-op returning None when the disk cache is disabled.
    """
    path = grid_path(grid.spec.grid_id())
    if path is None:
        return None
    from .contract import PROTOCOL_VERSION
    meta = {
        "schema": 1,
        "protocol": PROTOCOL_VERSION,
        "grid_id": grid.spec.grid_id(),
        "schema_hash": grid.schema_hash,
        "spec": grid.spec.to_meta(),
        "error_bounds_rel": grid.error_bounds_rel,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".npz.tmp")
    with tmp.open("wb") as handle:
        np.savez(handle, meta=np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
            **grid.tensors)
    tmp.replace(path)
    perf.bump("cache.grid.stores")
    return path


def load_grid(spec: GridSpec) -> Grid | None:
    """Reload a spilled grid, or None on miss.

    A miss is any of: disk cache disabled, no entry for this spec
    under the *current* model schema hash (the filename carries the
    hash, so stale-schema entries are invisible), or an unreadable /
    structurally wrong file.  The caller rebuilds or serves exact.
    """
    path = grid_path(spec.grid_id())
    if path is None:
        return None
    try:
        with np.load(path) as payload:
            meta = json.loads(bytes(payload["meta"]).decode())
            tensors = {metric: payload[metric] for metric in ALL_METRICS}
        stale = (meta.get("schema") != 1
                 or meta.get("schema_hash") != model_schema_hash()
                 or GridSpec.from_meta(meta["spec"]) != spec
                 or any(tensors[m].shape != spec.shape
                        for m in VDD_METRICS))
    except (OSError, ValueError, KeyError):
        perf.bump("cache.grid.misses")
        return None
    if stale:
        perf.bump("cache.grid.misses")
        return None
    bounds = meta.get("error_bounds_rel")
    if bounds is not None:
        bounds = {str(k): float(v) for k, v in bounds.items()
                  if v is not None and math.isfinite(float(v))}
    perf.bump("cache.grid.hits")
    return Grid(spec=spec, schema_hash=str(meta["schema_hash"]),
                tensors=tensors, error_bounds_rel=bounds)
