"""Weak-inversion (subthreshold) current and inverse subthreshold slope.

Implements the paper's Eq. 1 (weak-inversion drain current) and
Eq. 2(b) (short-channel inverse subthreshold slope):

``S_S = 2.3 v_T (1 + 3 T_ox / W_dep)
        (1 + (11 T_ox / W_dep) exp(-pi L_eff / 2 (W_dep + 3 T_ox)))``

The first parenthesis is the long-channel slope factor ``m``; the
second is the short-channel degradation that grows as ``L_eff`` shrinks
relative to ``T_ox`` and ``W_dep`` — the paper's central device-level
observation.
"""

from __future__ import annotations

import math

from ..constants import LN10, T_ROOM, thermal_voltage
from ..errors import ParameterError
from ..materials.oxide import GateStack

#: The "3 T_ox" factor is eps_si/eps_ox; keep the paper's constant name.
_EPS_RATIO = 3.0

#: Textbook (Taur & Ning / paper Eq. 2b) short-channel slope prefactor,
#: derived for uniformly doped channels.
TAUR_NING_PREFACTOR: float = 11.0

#: Calibrated short-channel slope prefactor.  Halo-engineered channels
#: confine source/drain field penetration, so the uniform-channel "11"
#: overstates swing degradation for the paper's devices; 8.0 balances
#: two calibration targets: the super-V_th family's S_S degradation
#: between the 90nm and 32nm nodes (paper: ~11 %; model: ~19 %) and a
#: short-channel S_S(L) sensitivity strong enough that the sub-V_th
#: optimiser lengthens the gate at the nanometer nodes (the paper's
#: Fig. 7/8 behaviour).  Pass ``prefactor=TAUR_NING_PREFACTOR`` to
#: recover the textbook form (the contrast is an ablation bench).
SCE_PREFACTOR_DEFAULT: float = 8.0


def slope_factor_from_widths(t_ox_eot_cm: float, w_dep_cm: float) -> float:
    """Long-channel slope factor ``m = 1 + 3 T_ox / W_dep`` from
    ``t_ox_eot_cm`` [cm] and ``w_dep_cm`` [cm]."""
    if t_ox_eot_cm <= 0.0 or w_dep_cm <= 0.0:
        raise ParameterError("T_ox and W_dep must be positive")
    return 1.0 + _EPS_RATIO * t_ox_eot_cm / w_dep_cm


def short_channel_slope_degradation(t_ox_eot_cm: float, w_dep_cm: float,
                                    l_eff_cm: float,
                                    prefactor: float | None = None
                                    ) -> float:
    """The second parenthesis of Eq. 2(b) (>= 1), from
    ``t_ox_eot_cm`` / ``w_dep_cm`` / ``l_eff_cm`` [cm].

    ``prefactor=None`` resolves the module-level
    :data:`SCE_PREFACTOR_DEFAULT` at call time, so calibration-
    sensitivity studies can patch it (see
    :mod:`repro.scaling.sensitivity`).
    """
    if prefactor is None:
        prefactor = SCE_PREFACTOR_DEFAULT
    if l_eff_cm <= 0.0:
        raise ParameterError("channel length must be positive")
    if prefactor < 0.0:
        raise ParameterError("prefactor must be >= 0")
    scale = w_dep_cm + _EPS_RATIO * t_ox_eot_cm
    exponent = -math.pi * l_eff_cm / (2.0 * scale)
    return 1.0 + prefactor * (t_ox_eot_cm / w_dep_cm) * math.exp(exponent)


def inverse_subthreshold_slope(stack: GateStack, w_dep_cm: float,
                               l_eff_cm: float | None = None,
                               temperature_k: float = T_ROOM,
                               prefactor: float | None = None
                               ) -> float:
    """Inverse subthreshold slope S_S [V/decade] per the paper's Eq. 2(b),
    from ``w_dep_cm`` [cm] and ``l_eff_cm`` [cm] at ``temperature_k``
    [K].

    Pass ``l_eff_cm=None`` for the long-channel limit (Eq. 2a with
    ``m = 1 + 3 T_ox/W_dep``).

    >>> from repro.materials.oxide import sio2
    >>> s = inverse_subthreshold_slope(sio2(2.1e-7), 2.4e-6, 45e-7)
    >>> 0.070 < s < 0.095    # ~80 mV/dec for a 90nm-class device
    True
    """
    vt = thermal_voltage(temperature_k)
    eot = stack.eot_cm
    m = slope_factor_from_widths(eot, w_dep_cm)
    slope = LN10 * vt * m
    if l_eff_cm is not None:
        slope *= short_channel_slope_degradation(eot, w_dep_cm, l_eff_cm,
                                                 prefactor)
    return slope


def subthreshold_current(i0_a: float, vgs: float, vds: float, vth: float,
                         m: float, temperature_k: float = T_ROOM) -> float:
    """Weak-inversion drain current per the paper's Eq. 1 [A], from
    prefactor ``i0_a`` [A] at ``temperature_k`` [K].

    ``I = I_0 exp((V_gs - V_th)/(m v_T)) (1 - exp(-V_ds / v_T))``

    where ``I_0 = (W/L) mu_eff C_dep v_T^2`` is pre-computed by the
    caller (see :class:`repro.device.iv.IVModel.i0`).
    """
    if i0_a < 0.0:
        raise ParameterError("I_0 must be >= 0")
    if m < 1.0:
        raise ParameterError(f"slope factor must be >= 1, got {m}")
    vt = thermal_voltage(temperature_k)
    drive = math.exp((vgs - vth) / (m * vt))
    drain = 1.0 - math.exp(-vds / vt) if vds >= 0.0 else -(
        1.0 - math.exp(vds / vt)
    )
    return i0_a * drive * drain


def on_off_ratio(i_on_a: float, i_off_a: float) -> float:
    """``i_on_a`` [A] over ``i_off_a`` [A]; guards against
    non-physical inputs."""
    if i_off_a <= 0.0:
        raise ParameterError("I_off must be positive")
    if i_on_a < 0.0:
        raise ParameterError("I_on must be >= 0")
    return i_on_a / i_off_a


def decades_of_drive(vdd: float, slope_v_per_decade: float) -> float:
    """Number of current decades a supply of ``vdd`` buys:
    V_dd / ``slope_v_per_decade`` [v/decade].

    The paper uses the identity ``S_S = V_dd / log10(I_on/I_off)`` to
    rewrite delay and energy in scaling-parameter form (Eq. 6).
    """
    if slope_v_per_decade <= 0.0:
        raise ParameterError("slope must be positive")
    if vdd < 0.0:
        raise ParameterError("vdd must be >= 0")
    return vdd / slope_v_per_decade
