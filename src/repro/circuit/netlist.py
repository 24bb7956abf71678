"""Netlist description for the nodal circuit simulator.

A deliberately small SPICE-like circuit representation: grounded
voltage sources (rails and inputs), two-terminal resistors and
capacitors, and MOSFET instances referencing the compact device models.
The paper's circuits — inverters, chains, ring oscillators, SRAM
cells — are all expressible, and :mod:`repro.circuit.mna_batch` solves
them.

Conventions
-----------
* Node names are strings; ``"0"`` (or ``GROUND``) is ground.
* Voltage sources must have their negative terminal at ground (the
  standard restriction that keeps the system pure-nodal; digital
  circuits never need floating sources).
* MOSFETs are three-terminal (drain, gate, source) with the body tied
  to the source rail, matching the device model's source-referenced
  formulation.  The model is symmetric, so drain/source swap freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..device.mosfet import MOSFET, Polarity
from ..errors import ParameterError

#: The ground node name.
GROUND = "0"


@dataclass(frozen=True)
class VoltageSource:
    """A grounded voltage source.

    ``waveform`` maps time [s] to volts; DC sources use a constant.
    """

    name: str
    node: str
    waveform: Callable[[float], float]

    def value(self, time_s: float) -> float:
        """Source voltage [V] at ``time_s`` [s]."""
        return float(self.waveform(time_s))


@dataclass(frozen=True)
class Resistor:
    """A two-terminal linear resistor."""

    name: str
    node_a: str
    node_b: str
    ohms: float


@dataclass(frozen=True)
class Capacitor:
    """A two-terminal linear capacitor."""

    name: str
    node_a: str
    node_b: str
    farads: float


@dataclass(frozen=True)
class Transistor:
    """A MOSFET instance in the netlist."""

    name: str
    drain: str
    gate: str
    source: str
    device: MOSFET

    def current_into_drain(self, v_d: float, v_g: float, v_s: float) -> float:
        """Drain-terminal current [A], positive flowing into the drain.

        For an NFET, current flows drain -> source when ``v_d > v_s``;
        the symmetric model handles reversed bias by swapping terminals.
        A PFET is evaluated with all voltage magnitudes mirrored.
        """
        dev = self.device
        if dev.polarity is Polarity.NFET:
            if v_d >= v_s:
                return float(dev.ids(v_g - v_s, v_d - v_s))
            return -float(dev.ids(v_g - v_d, v_s - v_d))
        # PFET: conduction when the source (the higher terminal) sees a
        # negative gate drive; mirror all magnitudes.
        if v_d <= v_s:
            return -float(dev.ids(v_s - v_g, v_s - v_d))
        return float(dev.ids(v_d - v_g, v_d - v_s))


@dataclass
class Circuit:
    """A flat netlist.

    >>> from repro.device import nfet, pfet
    >>> c = Circuit()
    >>> c.add_vsource("vdd", "vdd", 1.0)
    >>> c.add_vsource("vin", "in", 0.0)
    >>> c.add_mosfet("mp", "out", "in", "vdd",
    ...              pfet(65, 2.1, 1.2e18, 1.5e18))
    >>> c.add_mosfet("mn", "out", "in", "0",
    ...              nfet(65, 2.1, 1.2e18, 1.5e18))
    >>> sorted(c.unknown_nodes())
    ['out']
    """

    sources: list[VoltageSource] = field(default_factory=list)
    resistors: list[Resistor] = field(default_factory=list)
    capacitors: list[Capacitor] = field(default_factory=list)
    transistors: list[Transistor] = field(default_factory=list)
    #: Incrementally maintained taken-name set; rebuilding it per add
    #: made netlist construction O(n^2), real money at array scale.
    _names: set[str] = field(default_factory=set, init=False, repr=False,
                             compare=False)

    def __post_init__(self) -> None:
        for e in (*self.sources, *self.resistors, *self.capacitors,
                  *self.transistors):
            self._names.add(e.name)

    # -- construction -------------------------------------------------------

    def _check_name(self, name: str) -> None:
        if name in self._names:
            raise ParameterError(f"element name {name!r} already used")

    def add_vsource(self, name: str, node: str,
                    value: float | Callable[[float], float]) -> None:
        """Add a grounded source; ``value`` is volts or a waveform(t)."""
        self._check_name(name)
        if node == GROUND:
            raise ParameterError("source node cannot be ground")
        for s in self.sources:
            if s.node == node:
                raise ParameterError(f"node {node!r} already driven by "
                                     f"source {s.name!r}")
        waveform = (lambda _t, v=float(value): v) if not callable(value) \
            else value
        self.sources.append(VoltageSource(name=name, node=node,
                                          waveform=waveform))
        self._names.add(name)

    def add_resistor(self, name: str, node_a: str, node_b: str,
                     ohms: float) -> None:
        """Add a linear resistor of ``ohms`` [ohms]."""
        self._check_name(name)
        if ohms <= 0.0:
            raise ParameterError("resistance must be positive")
        self.resistors.append(Resistor(name, node_a, node_b, ohms))
        self._names.add(name)

    def add_capacitor(self, name: str, node_a: str, node_b: str,
                      farads: float) -> None:
        """Add a linear capacitor of ``farads`` [farads]."""
        self._check_name(name)
        if farads <= 0.0:
            raise ParameterError("capacitance must be positive")
        self.capacitors.append(Capacitor(name, node_a, node_b, farads))
        self._names.add(name)

    def add_mosfet(self, name: str, drain: str, gate: str, source: str,
                   device: MOSFET) -> None:
        """Add a MOSFET instance."""
        self._check_name(name)
        self.transistors.append(Transistor(name, drain, gate, source,
                                           device))
        self._names.add(name)

    def add_inverter(self, name: str, input_node: str, output_node: str,
                     vdd_node: str, nfet_dev: MOSFET, pfet_dev: MOSFET
                     ) -> None:
        """Convenience: a CMOS inverter between the rails."""
        self.add_mosfet(f"{name}.mp", output_node, input_node, vdd_node,
                        pfet_dev)
        self.add_mosfet(f"{name}.mn", output_node, input_node, GROUND,
                        nfet_dev)

    # -- topology -------------------------------------------------------------

    def all_nodes(self) -> set[str]:
        """All node names, ground included."""
        nodes = {GROUND}
        for s in self.sources:
            nodes.add(s.node)
        for r in self.resistors:
            nodes.update((r.node_a, r.node_b))
        for c in self.capacitors:
            nodes.update((c.node_a, c.node_b))
        for t in self.transistors:
            nodes.update((t.drain, t.gate, t.source))
        return nodes

    def fixed_nodes(self) -> set[str]:
        """Nodes pinned by ground or a source."""
        return {GROUND} | {s.node for s in self.sources}

    def unknown_nodes(self) -> list[str]:
        """Nodes the solver must determine, in deterministic order."""
        return sorted(self.all_nodes() - self.fixed_nodes())

    def validate(self) -> None:
        """Sanity-check the topology before solving."""
        if not self.sources:
            raise ParameterError("circuit has no sources")
        unknowns = self.unknown_nodes()
        if not unknowns:
            raise ParameterError("circuit has no unknown nodes to solve")
        # Every unknown node must connect to at least one current-
        # carrying element terminal (a floating node has no equation).
        touched: set[str] = set()
        for r in self.resistors:
            touched.update((r.node_a, r.node_b))
        for c in self.capacitors:
            touched.update((c.node_a, c.node_b))
        for t in self.transistors:
            touched.update((t.drain, t.source))
        floating = [n for n in unknowns if n not in touched]
        if floating:
            raise ParameterError(f"floating nodes: {floating}")
