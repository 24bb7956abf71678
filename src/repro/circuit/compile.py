"""Netlist lowering: compile a :class:`Circuit` to integer index arrays.

A scalar nodal solver (the oracle in :mod:`repro.reference`) walks
python lists of elements and a name->index dict on every residual
evaluation.  That
is fine for a handful of nodes, but an N-row SRAM column evaluates
thousands of device currents per Newton sweep.  This module lowers the
netlist **once** into flat numpy index arrays so the batched engine
(:mod:`repro.circuit.mna_batch`) can stamp every element of every
batch lane with a few vectorised calls:

* a full-vector node numbering — unknown nodes first (in the exact
  order of :meth:`Circuit.unknown_nodes`), then ground, then source
  nodes — so gathering element terminal voltages is integer indexing;
* dense linear stamp matrices for resistors and capacitors (residual
  contribution is one matmul; their Jacobian block is constant);
* transistors grouped by shared device model, each group carrying
  per-terminal full-vector indices plus the flat Jacobian cells of
  its partials (fixed nodes dump into a discard row/column), so one
  kernel call evaluates a whole group across all lanes.

Compilation is **canonical**: elements are processed in name-sorted
order, so two circuits with the same elements added in different
orders lower to bitwise-identical stamps — DC results are invariant
to insertion order (property-tested in ``tests/test_properties_mna.py``).

Memory note: the batched Jacobian is dense, ``(lanes, n, n)`` floats;
at 512 lanes a 16-row column (34 unknowns) costs ~5 MB, a 256-row
column ~1 GB.  Columns beyond ~100 rows should shrink the lane count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
import numpy.typing as npt

from ..device.mosfet import MOSFET, Polarity
from .netlist import GROUND, Circuit

__all__ = ["CompiledCircuit", "TransistorGroup", "compile_circuit"]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.intp]


@dataclass(frozen=True)
class TransistorGroup:
    """All transistors sharing one device model, as index arrays.

    ``*_full`` index the full voltage vector (terminal gathers, and
    residual rows — the residual is kept full-length so fixed-node
    rows read back as source currents); ``*_col`` index Jacobian
    rows/columns, with fixed-node terminals mapped to the discard
    row/column ``n_unknown``.  ``jac_cells`` holds the flat Jacobian
    cell ``row * (n_unknown + 1) + col`` of every device partial,
    shape ``(6, size)``: the drain row against the drain, gate and
    source columns, then the source row against the same three.
    """

    device: MOSFET
    polarity: Polarity
    names: tuple[str, ...]
    drain_full: IntArray
    gate_full: IntArray
    source_full: IntArray
    drain_col: IntArray
    gate_col: IntArray
    source_col: IntArray
    jac_cells: IntArray

    @property
    def size(self) -> int:
        """Number of transistor instances in the group."""
        return len(self.names)


@dataclass(frozen=True)
class CompiledCircuit:
    """A :class:`Circuit` lowered to index arrays and stamp matrices.

    Attributes
    ----------
    unknowns:
        Unknown node names; full-vector indices ``0 .. n_unknown-1``.
    fixed:
        Fixed node names (ground first, then source nodes sorted);
        full-vector indices ``n_unknown ..``.
    g_linear:
        ``(n_total, n_total)`` conductance stamps [S]: the resistor
        residual contribution is ``g_linear @ v_full``.
    c_linear:
        ``(n_total, n_total)`` capacitance stamps [F] (backward-Euler
        companion currents are ``c_linear @ (v - v_prev) / dt``).
    groups:
        Transistor groups in canonical (name-sorted, first-occurrence)
        order.
    waveforms:
        Per-fixed-node source waveform, aligned with ``fixed``
        (``None`` for ground).
    source_names:
        Per-fixed-node source name, aligned with ``fixed`` (``None``
        for ground).
    source_position:
        Source name *and* source node -> index into ``fixed``.
    """

    unknowns: tuple[str, ...]
    fixed: tuple[str, ...]
    g_linear: FloatArray
    c_linear: FloatArray
    groups: tuple[TransistorGroup, ...]
    waveforms: tuple[Callable[[float], float] | None, ...]
    source_names: tuple[str | None, ...]
    source_position: Mapping[str, int]

    @property
    def n_unknown(self) -> int:
        """Number of unknown nodes (Newton system size)."""
        return len(self.unknowns)

    @property
    def n_total(self) -> int:
        """Full voltage-vector length (unknown + fixed nodes)."""
        return len(self.unknowns) + len(self.fixed)

    @property
    def node_names(self) -> tuple[str, ...]:
        """All node names in full-vector order."""
        return self.unknowns + self.fixed

    def fixed_base(self, time_s: float) -> FloatArray:
        """Fixed-node voltages [V] from the source waveforms at
        ``time_s`` [s] (ground is 0)."""
        return np.array([0.0 if w is None else float(w(time_s))
                         for w in self.waveforms], dtype=float)


def _full_index(unknowns: list[str], fixed: list[str]) -> dict[str, int]:
    index = {name: i for i, name in enumerate(unknowns)}
    for j, name in enumerate(fixed):
        index[name] = len(unknowns) + j
    return index


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Lower ``circuit`` into a :class:`CompiledCircuit`.

    Validates the topology first (same checks as the scalar solver).
    The lowering is pure — the circuit is not mutated and may keep
    being extended; recompile to pick up new elements.
    """
    circuit.validate()
    unknowns = circuit.unknown_nodes()
    sources = sorted(circuit.sources, key=lambda s: s.name)
    fixed = [GROUND] + sorted({s.node for s in sources})
    index = _full_index(unknowns, fixed)
    n = len(unknowns)
    n_total = len(unknowns) + len(fixed)

    g_linear = np.zeros((n_total, n_total))
    for r in sorted(circuit.resistors, key=lambda e: e.name):
        g = 1.0 / r.ohms
        a, b = index[r.node_a], index[r.node_b]
        g_linear[a, a] += g
        g_linear[a, b] -= g
        g_linear[b, a] -= g
        g_linear[b, b] += g

    c_linear = np.zeros((n_total, n_total))
    for c in sorted(circuit.capacitors, key=lambda e: e.name):
        a, b = index[c.node_a], index[c.node_b]
        c_linear[a, a] += c.farads
        c_linear[a, b] -= c.farads
        c_linear[b, a] -= c.farads
        c_linear[b, b] += c.farads

    # Group transistors by shared device model object.  Devices are
    # immutable and memoised, so array builders naturally share one
    # model across hundreds of instances; grouping in name-sorted
    # first-occurrence order keeps the lowering canonical.
    grouped: dict[int, list] = {}
    order: list[int] = []
    for t in sorted(circuit.transistors, key=lambda e: e.name):
        key = id(t.device)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(t)

    def jcol(node: str) -> int:
        i = index[node]
        return i if i < n else n

    groups = []
    for key in order:
        members = grouped[key]
        device = members[0].device
        drain, gate, source = (
            np.array([jcol(getattr(t, terminal)) for t in members],
                     dtype=np.intp)
            for terminal in ("drain", "gate", "source"))
        groups.append(TransistorGroup(
            device=device,
            polarity=device.polarity,
            names=tuple(t.name for t in members),
            drain_full=np.array([index[t.drain] for t in members],
                                dtype=np.intp),
            gate_full=np.array([index[t.gate] for t in members],
                               dtype=np.intp),
            source_full=np.array([index[t.source] for t in members],
                                 dtype=np.intp),
            drain_col=drain,
            gate_col=gate,
            source_col=source,
            jac_cells=np.stack([row * (n + 1) + col
                                for row in (drain, source)
                                for col in (drain, gate, source)]),
        ))

    waveforms: list[Callable[[float], float] | None] = [None] * len(fixed)
    names: list[str | None] = [None] * len(fixed)
    position: dict[str, int] = {}
    for s in sources:
        pos = index[s.node] - n
        waveforms[pos] = s.waveform
        names[pos] = s.name
        position[s.name] = pos
        position[s.node] = pos

    return CompiledCircuit(
        unknowns=tuple(unknowns),
        fixed=tuple(fixed),
        g_linear=g_linear,
        c_linear=c_linear,
        groups=tuple(groups),
        waveforms=tuple(waveforms),
        source_names=tuple(names),
        source_position=position,
    )
