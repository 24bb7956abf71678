"""Scalar reference for the device-layer corner grid."""

from __future__ import annotations

from ..device.corners import Corner, CornerSpec, at_corner
from ..device.mosfet import MOSFET


def ff_ss_delay_spread(device: MOSFET, vdd: float,
                       spec: CornerSpec | None = None) -> float:
    """FF-to-SS drive-current ratio at ``vdd``, from one scalar device
    per corner."""
    ff = at_corner(device, Corner.FF, spec)
    ss = at_corner(device, Corner.SS, spec)
    return ff.i_on_per_um(vdd) / ss.i_on_per_um(vdd)
