"""Containers for optimised device families.

A *design* is the NFET/PFET pair an optimiser produced for one node; a
*family* is the set of designs across nodes under one strategy.  Both
expose the summary metrics the paper tabulates so experiments and
benches never re-derive them inconsistently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuit.inverter import Inverter
from ..device.batch import ParameterStack
from ..device.mosfet import MOSFET
from ..errors import ParameterError
from .roadmap import NodeSpec


@dataclass(frozen=True)
class DeviceDesign:
    """The optimised device pair for one node under one strategy.

    Attributes
    ----------
    node:
        The node inputs this design was optimised for.
    nfet / pfet:
        The optimised devices.
    strategy:
        "super-vth" or "sub-vth".
    vdd:
        The supply the strategy associates with this design (nominal
        V_dd for super-V_th; V_min is computed downstream for both).
    """

    node: NodeSpec
    nfet: MOSFET
    pfet: MOSFET
    strategy: str
    vdd: float

    def inverter(self, vdd: float | None = None) -> Inverter:
        """A symmetric inverter built from this design's device pair."""
        return Inverter(nfet=self.nfet, pfet=self.pfet,
                        vdd=self.vdd if vdd is None else vdd)

    def load_capacitance(self) -> float:
        """FO1 load of the design's inverter [F] (the C_L in Eqs. 6-8)."""
        return self.inverter(self.vdd).load_capacitance(fanout=1)

    def summary(self, vth_sat_v: float | None = None) -> dict[str, float]:
        """The paper's table metrics for this design (NFET-referenced).

        ``vth_sat_v`` lets :meth:`DeviceFamily.table_rows` substitute a
        batch-solved constant-current V_th; by default the design's own
        scalar (brentq) extraction is used.
        """
        vdd = self.vdd
        if vth_sat_v is None:
            vth_sat_v = self.nfet.vth_sat_cc(vdd)
        return {
            "l_poly_nm": self.nfet.geometry.l_poly_nm,
            "t_ox_nm": self.nfet.stack.thickness_cm * 1e7,
            "n_sub_cm3": self.nfet.profile.n_sub_cm3,
            "n_halo_cm3": self.nfet.profile.n_halo_net_cm3,
            "vdd": vdd,
            "vth_sat_mv": 1000.0 * vth_sat_v,
            "ioff_pa_per_um": 1e12 * self.nfet.i_off_per_um(vdd),
            "ss_mv_per_dec": self.nfet.ss_mv_per_dec,
            "tau_ps": 1e12 * self.nfet.intrinsic_delay(vdd),
        }


@dataclass(frozen=True)
class DeviceFamily:
    """Device designs across nodes under one strategy.

    Attributes
    ----------
    strategy:
        Family label ("super-vth" / "sub-vth").
    designs:
        One design per node, in roadmap order.
    """

    strategy: str
    designs: tuple[DeviceDesign, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.designs:
            raise ParameterError("family needs at least one design")

    def node_names(self) -> tuple[str, ...]:
        """Labels of the nodes in this family."""
        return tuple(d.node.name for d in self.designs)

    def design(self, node_name: str) -> DeviceDesign:
        """Look up the design for one node."""
        for d in self.designs:
            if d.node.name == node_name:
                return d
        raise ParameterError(
            f"no design for node {node_name!r} in {self.strategy} family"
        )

    def nfet_stack(self) -> ParameterStack:
        """The family's NFETs as one parameter-axis stack.

        Rebuilt from the same inputs the optimiser constructed each
        device with (gate length, node oxide, node reference length),
        so stacked metrics agree with the per-device scalar models to
        the batch layer's equivalence budget.
        """
        designs = self.designs
        return ParameterStack(
            l_poly_nm=np.array([d.nfet.geometry.l_poly_nm for d in designs]),
            t_ox_nm=np.array([d.node.t_ox_nm for d in designs]),
            is_nfet=True,
            width_um=np.array([d.nfet.geometry.width_um for d in designs]),
            reference_nm=np.array([d.node.l_poly_nm for d in designs]),
        )

    def table_rows(self) -> list[dict[str, float]]:
        """One summary row per node (the Table 2 / Table 3 payload).

        The V_th,sat column for the whole family comes from one
        gathered constant-current solve
        (:meth:`repro.device.batch.BatchDeviceMetrics.vth_sat_cc`).
        """
        metrics = self.nfet_stack().metrics(
            np.array([d.nfet.profile.n_sub_cm3 for d in self.designs]),
            np.array([d.nfet.profile.n_p_halo_cm3 for d in self.designs]),
        )
        vth = metrics.vth_sat_cc(np.array([d.vdd for d in self.designs]))
        return [d.summary(vth_sat_v=float(v))
                for d, v in zip(self.designs, vth)]
