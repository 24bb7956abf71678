"""One-dimensional MOS electrostatics.

Closed-form quantities for a uniformly (effectively) doped MOS system:
maximum depletion width, body factor, depletion capacitance, the
subthreshold slope factor ``m = 1 + C_dep/C_ox`` and the flat-band
voltage of an n+/p+ poly gate.  These are the building blocks for both
the analytic threshold/slope models and the self-consistency loop that
couples the halo profile to the depletion depth.
"""

from __future__ import annotations

import math

from ..constants import EPS_OX_REL, EPS_SI, EPS_SI_REL, Q, T_ROOM
from ..errors import ParameterError
from ..materials.oxide import GateStack
from ..materials.silicon import bandgap_ev, fermi_potential


def surface_potential_threshold(doping_cm3: float,
                                temperature_k: float = T_ROOM) -> float:
    """Surface potential [V] at the classical threshold condition
    ``2 phi_F``, for body doping ``doping_cm3`` [cm3] at
    ``temperature_k`` [K]."""
    return 2.0 * fermi_potential(doping_cm3, temperature_k)


def depletion_width(doping_cm3: float, surface_potential_v: float | None = None,
                    temperature_k: float = T_ROOM) -> float:
    """Depletion width [cm] at surface potential
    ``surface_potential_v`` [V], body doping ``doping_cm3`` [cm3],
    ``temperature_k`` [K].

    Defaults to the maximum depletion width at threshold
    (``psi_s = 2 phi_F``): ``W_dep = sqrt(2 eps_si psi_s / (q N))``.
    """
    if doping_cm3 <= 0.0:
        raise ParameterError(f"doping must be positive, got {doping_cm3}")
    psi = (surface_potential_threshold(doping_cm3, temperature_k)
           if surface_potential_v is None else surface_potential_v)
    if psi <= 0.0:
        raise ParameterError(f"surface potential must be positive, got {psi}")
    return math.sqrt(2.0 * EPS_SI * psi / (Q * doping_cm3))


def depletion_capacitance(doping_cm3: float,
                          surface_potential_v: float | None = None,
                          temperature_k: float = T_ROOM) -> float:
    """Depletion capacitance per area ``C_dep = eps_si / W_dep``
    [F/cm2] at ``surface_potential_v`` [V], body doping
    ``doping_cm3`` [cm3], ``temperature_k`` [K]."""
    return EPS_SI / depletion_width(doping_cm3, surface_potential_v,
                                    temperature_k)


def body_factor(doping_cm3: float, stack: GateStack) -> float:
    """Body-effect coefficient ``gamma = sqrt(2 q eps_si N) / C_ox``
    [V^0.5] for body doping ``doping_cm3`` [cm3]."""
    if doping_cm3 <= 0.0:
        raise ParameterError(f"doping must be positive, got {doping_cm3}")
    return math.sqrt(2.0 * Q * EPS_SI * doping_cm3) / stack.capacitance_per_area


def slope_factor(doping_cm3: float, stack: GateStack,
                 temperature_k: float = T_ROOM) -> float:
    """Subthreshold slope factor ``m = 1 + C_dep / C_ox`` for body
    doping ``doping_cm3`` [cm3] at ``temperature_k`` [K].

    Using the EOT, ``C_dep/C_ox = (eps_si/eps_ox) * T_ox / W_dep =
    3 * T_ox / W_dep`` — the ``3 T_ox / W_dep`` term of the paper's
    Eq. 2(b).
    """
    wdep = depletion_width(doping_cm3, temperature_k=temperature_k)
    ratio = (EPS_SI_REL / EPS_OX_REL) * stack.eot_cm / wdep
    return 1.0 + ratio


def flatband_voltage(doping_cm3: float, temperature_k: float = T_ROOM,
                     gate: str = "n+poly") -> float:
    """Flat-band voltage [V] of a degenerate poly gate over a body
    doped ``doping_cm3`` [cm3] at ``temperature_k`` [K].

    For an n+ poly gate on a p-type body,
    ``V_FB = -(E_g/2 + phi_F)``; a p+ gate on an n-type body gives the
    mirrored ``+(E_g/2 + phi_F)``.  Oxide fixed charge is neglected.
    """
    phi_f = fermi_potential(doping_cm3, temperature_k)
    half_gap = bandgap_ev(temperature_k) / 2.0
    if gate == "n+poly":
        return -(half_gap + phi_f)
    if gate == "p+poly":
        return half_gap + phi_f
    raise ParameterError(f"unknown gate type {gate!r}")


def self_consistent_channel_doping(profile, l_eff_cm: float,
                                   temperature_k: float = T_ROOM,
                                   tol: float = 1e-4,
                                   max_iter: int = 60) -> tuple[float, float]:
    """Solve the N_eff <-> W_dep fixed point for a halo'd channel of
    length ``l_eff_cm`` [cm] at ``temperature_k`` [K].

    The halo contribution to the channel-average doping depends on the
    depth over which the average is taken (the depletion width), which
    itself depends on the doping.  Iterate
    ``N_eff -> W_dep(N_eff) -> N_eff(W_dep)`` to convergence.

    Returns
    -------
    (n_eff_cm3, w_dep_cm):
        The converged effective doping and depletion width.
    """
    n_eff = profile.effective_channel_doping(l_eff_cm, depth_limit_cm=None)
    w_dep = depletion_width(n_eff, temperature_k=temperature_k)
    for _ in range(max_iter):
        n_next = profile.effective_channel_doping(l_eff_cm, depth_limit_cm=w_dep)
        w_next = depletion_width(n_next, temperature_k=temperature_k)
        if abs(n_next - n_eff) <= tol * n_eff:
            return n_next, w_next
        n_eff, w_dep = n_next, w_next
    # Fixed point is a contraction for physical parameters; if we get
    # here the parameters are extreme but the last iterate is still a
    # usable approximation.
    return n_eff, w_dep

