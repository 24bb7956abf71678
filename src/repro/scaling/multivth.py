"""Multi-threshold device offerings (paper Section 3.2 extension).

Both the paper's strategies note that "different performance levels can
be targeted by offering multiple thresholds" — the standard LVT / RVT /
HVT menu of a real PDK.  This module derives threshold variants from a
strategy design by re-solving the doping for scaled leakage targets
(an LVT device leaks ~10x more and switches correspondingly faster;
HVT the reverse), exactly how foundries expose V_th flavours of one
process.

The interesting sub-V_th property (quantified by the tests and the
``ext_multivth`` experiment): because delay is exponential in V_th
while the slope S_S barely moves across flavours, a 10x leakage step
buys a *constant multiple* of drive — the flavour spread itself is a
scaling invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..device.mosfet import MOSFET, Polarity
from ..errors import ParameterError
from .roadmap import NodeSpec
from .strategy import DeviceDesign
from .subvth import SUB_VTH_EVAL_VDD
from .supervth import PFET_WIDTH_RATIO

#: Leakage multipliers defining the standard flavour menu.
FLAVOURS: dict[str, float] = {"lvt": 10.0, "rvt": 1.0, "hvt": 0.1}


@dataclass(frozen=True)
class VthFlavour:
    """One threshold flavour of a design.

    Attributes
    ----------
    name:
        "lvt" / "rvt" / "hvt".
    design:
        The re-doped device pair.
    ioff_target_a_per_um:
        The leakage target this flavour was solved for.
    """

    name: str
    design: DeviceDesign
    ioff_target_a_per_um: float

    def vth_mv(self, vds: float = 0.05) -> float:
        """NFET threshold voltage [mV]."""
        return 1000.0 * self.design.nfet.vth(vds)

    def drive_a_per_um(self, vdd: float) -> float:
        """NFET on-current per µm at supply ``vdd`` [A/µm]."""
        return self.design.nfet.i_on_per_um(vdd)

    def leakage_a_per_um(self, vdd: float) -> float:
        """NFET off-current per µm at supply ``vdd`` [A/µm]."""
        return self.design.nfet.i_off_per_um(vdd)


def derive_flavours(node: NodeSpec, l_poly_nm: float,
                    base_ioff_a_per_um: float = 100e-12,
                    vdd_leak: float = SUB_VTH_EVAL_VDD,
                    pfet_width_um: float = PFET_WIDTH_RATIO,
                    flavours: dict[str, float] | None = None
                    ) -> dict[str, VthFlavour]:
    """Solve the LVT/RVT/HVT menu at one node and gate length.

    Parameters
    ----------
    node:
        Node inputs (T_ox, parasitic scale).
    l_poly_nm:
        The gate length shared by all flavours (one lithography, three
        implant recipes — the foundry reality).
    base_ioff_a_per_um:
        RVT leakage target; LVT/HVT scale it by :data:`FLAVOURS`.
    vdd_leak:
        Bias at which the leakage targets are enforced.

    One batched root-solve covers the whole flavour menu.

    >>> from repro.scaling.roadmap import node_by_name
    >>> menu = derive_flavours(node_by_name("45nm"), 47.0)
    >>> menu["lvt"].vth_mv() < menu["rvt"].vth_mv() < menu["hvt"].vth_mv()
    True
    """
    if base_ioff_a_per_um <= 0.0:
        raise ParameterError("base leakage target must be positive")
    menu = flavours or FLAVOURS
    for name, multiplier in menu.items():
        if multiplier <= 0.0:
            raise ParameterError(f"flavour {name!r} multiplier must be > 0")
    # The batched engine supports per-candidate leakage targets, so all
    # flavour x polarity x halo-ratio points stack together.
    from .batch import optimize_doping_groups, reset_warm_starts
    from .subvth import HALO_RATIO_GRID, SS_TIE_TOLERANCE
    reset_warm_starts()
    groups = []
    for name, multiplier in menu.items():
        target = base_ioff_a_per_um * multiplier
        groups.append((l_poly_nm, Polarity.NFET, 1.0, target, vdd_leak))
        groups.append((l_poly_nm, Polarity.PFET, pfet_width_um,
                       target, vdd_leak))
    winners = optimize_doping_groups(node, groups, HALO_RATIO_GRID,
                                     SS_TIE_TOLERANCE)
    pairs = {name: (winners[2 * i], winners[2 * i + 1])
             for i, name in enumerate(menu)}
    return _flavour_menu(node, base_ioff_a_per_um, vdd_leak, menu, pairs)


def _flavour_menu(node: NodeSpec, base_ioff_a_per_um: float,
                  vdd_leak: float, menu: dict[str, float],
                  pairs: dict[str, tuple[MOSFET, MOSFET]]
                  ) -> dict[str, VthFlavour]:
    """Wrap each flavour's solved device pair, leaking at
    ``base_ioff_a_per_um`` [A/um] x its multiplier at ``vdd_leak``
    [V], as a :class:`VthFlavour`."""
    result: dict[str, VthFlavour] = {}
    for name, (n_dev, p_dev) in pairs.items():
        design = DeviceDesign(node=node, nfet=n_dev, pfet=p_dev,
                              strategy=f"multi-vth/{name}",
                              vdd=vdd_leak)
        result[name] = VthFlavour(
            name=name, design=design,
            ioff_target_a_per_um=base_ioff_a_per_um * menu[name])
    return result


def drive_spread(menu: dict[str, VthFlavour], vdd: float) -> float:
    """LVT-to-HVT on-current ratio at supply ``vdd``.

    In pure subthreshold conduction a 100x leakage window translates to
    the same 100x drive window (both slide along one exponential), so
    this should sit near ``lvt_ioff/hvt_ioff`` at low V_dd and compress
    as the supply approaches V_th.
    """
    if "lvt" not in menu or "hvt" not in menu:
        raise ParameterError("menu needs both 'lvt' and 'hvt' flavours")
    return (menu["lvt"].drive_a_per_um(vdd)
            / menu["hvt"].drive_a_per_um(vdd))
