"""The EKV compact-model kernel: one drain-current expression, with partials.

Every drain current in the reproduction comes from this module.  The
scalar :class:`repro.device.iv.IVModel`, the parameter-axis
:class:`repro.device.batch.BatchDeviceMetrics`, the batched inverter
balance of :mod:`repro.circuit.batch` and the batched nodal engine
:mod:`repro.circuit.mna_batch` all describe their devices as a
:class:`DeviceCard` and call :func:`ids`.

The expression (see ``docs/PHYSICS.md`` §5) is

``I_ds = I_spec [F(V_p/v_T) - F((V_p - V_ds)/v_T)]``
``/ (1 + σ µ_low v_dsat/(v_sat L_eff))``

with ``F(u) = ln(1 + e^{u/2})^2``, ``V_p = (V_gs - V_th(V_ds))/m``,
DIBL ``V_th(V_ds) = V_th0 - [(2 b + V_ds) e1 + 2 sqrt(b (b + V_ds)) e2]``,
``I_spec = 2 m µ_eff C_ox v_T^2 W/L_eff`` with the effective-field
mobility ``µ_eff = µ_low / (1 + (E_eff/E_0)^ν)``,
``E_eff = max(V_gs + V_th0, 0)/(6 EOT)``, and the inversion-weighted
velocity saturation ``σ = i_f/(1 + i_f)``,
``v_dsat = V_ds v_drive/(V_ds + v_drive)``, ``v_drive = max(V_p, 2 v_T)``.

With ``derivs=True`` the kernel also returns the analytic partials
``∂I/∂V_gs`` and ``∂I/∂V_ds`` (one evaluation instead of a
finite-difference stencil); they follow the kinks of the model
(``V_p = 2 v_T``, ``V_gs + V_th0 = 0``) one-sidedly, as ``max`` does.

The operation order is fixed: every caller gets the same bits it got
when it carried its own copy of the formula.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import ParameterError

#: Universal-mobility field constants (E_0 [V/cm], exponent ν) per
#: carrier, as in :func:`repro.materials.mobility.vertical_field_factor`.
_ELECTRON_FIELD = (6.7e5, 1.6)
_HOLE_FIELD = (7.0e5, 1.0)

#: Half-argument above which ``log1p(exp(x))`` is evaluated as
#: ``x + log1p(exp(-x))`` (``exp`` would overflow long before 710).
_F_SPLIT = 30.0


class DeviceCard(NamedTuple):
    """Struct-of-arrays EKV device card.

    Each field is a scalar for one device or an array (broadcasting
    against the bias arrays) for a stack of devices.  Build one with
    :meth:`repro.device.iv.IVModel.card` or
    :attr:`repro.device.batch.BatchDeviceMetrics.card`.
    """

    #: Zero-drain-bias threshold V_th0 plus any V_th offset [V].
    vth0_v: float | np.ndarray
    #: Intrinsic V_th0 entering the effective field E_eff [V] (no offset).
    field_vth0_v: float | np.ndarray
    #: Slope factor m (short-channel Eq. 2(b) slope over ln10 v_T).
    slope_factor: float | np.ndarray
    #: SCE barrier b = V_bi - 2 phi_F of the DIBL term [V].
    sce_barrier_v: float | np.ndarray
    #: DIBL decay factors e1 = exp(-L/2l_t), e2 = exp(-L/l_t).
    sce_e1_factor: float | np.ndarray
    sce_e2_factor: float | np.ndarray
    #: Thermal voltage v_T [V].
    vt_v: float | np.ndarray
    #: Low-field (Masetti) mobility µ_low [cm^2/Vs].
    mu_low_cm2_per_v_s: float | np.ndarray
    #: Saturation velocity times effective length, v_sat L_eff [cm^2/s].
    vsat_leff_cm2_per_s: float | np.ndarray
    #: I_spec inputs: equivalent oxide thickness [cm], C_ox [F/cm^2],
    #: W/L_eff, and the carrier (True = electron field constants).
    eot_cm: float | np.ndarray
    cox_f_per_cm2: float | np.ndarray
    aspect_ratio: float | np.ndarray
    electron: bool | np.ndarray

    def take(self, idx) -> "DeviceCard":
        """The card of flat lanes ``idx``; scalar fields are shared."""
        return DeviceCard(*(value if np.ndim(value) == 0
                            else np.ravel(value)[idx] for value in self))


def _ekv_f(u):
    """EKV interpolation function ``ln(1 + exp(u/2))^2``, overflow-safe.

    Only the branch each lane needs is evaluated: ``log1p(exp(u/2))``
    below the split, ``u/2 + log1p(exp(-u/2))`` (patched in) above it.
    """
    half = np.multiply(0.5, u)
    log = np.log1p(np.exp(np.minimum(half, _F_SPLIT)))
    big = half > _F_SPLIT
    if big.any():
        log = np.where(big, half + np.log1p(np.exp(-np.abs(half))), log)
    return np.square(log)


def _ekv_f_slope(u, f):
    """``F'(u) = ln(1 + e^{u/2}) σ(u/2)`` given ``f = F(u)``.

    With ``ln(.) = sqrt(F)`` the logistic is ``exp(u/2 - sqrt(F))``,
    which never overflows.
    """
    log = np.sqrt(f)
    return log * np.exp(0.5 * u - log)


def _dibl_drop(card: DeviceCard, vds):
    """DIBL V_th reduction [V] at the (clamped) drain bias ``vds``."""
    b = card.sce_barrier_v
    return ((2.0 * b + vds) * card.sce_e1_factor
            + 2.0 * np.sqrt(b * (b + vds)) * card.sce_e2_factor)


def threshold_v(card: DeviceCard, vds):
    """Threshold voltage [V] at drain bias ``vds`` (DIBL included)."""
    vds_arr = np.maximum(np.asarray(vds, dtype=float), 0.0)
    return card.vth0_v - _dibl_drop(card, vds_arr)


def _by_carrier(card: DeviceCard, term):
    """``term(E_0, ν)`` for the carrier(s) on the card."""
    if np.ndim(card.electron) == 0:
        return term(*(_ELECTRON_FIELD if card.electron else _HOLE_FIELD))
    return np.where(card.electron, term(*_ELECTRON_FIELD),
                    term(*_HOLE_FIELD))


def specific_current_a(card: DeviceCard, vgs):
    """Specific current ``2 m µ_eff C_ox v_T^2 W/L_eff`` [A] at ``vgs``."""
    e_eff = np.maximum(np.asarray(vgs, dtype=float) + card.field_vth0_v,
                       0.0) / (6.0 * card.eot_cm)
    mu = card.mu_low_cm2_per_v_s / _by_carrier(
        card, lambda e0, nu: 1.0 + (e_eff / e0) ** nu)
    return (2.0 * card.slope_factor * mu * card.cox_f_per_cm2
            * card.vt_v ** 2 * card.aspect_ratio)


def _ispec_log_slope(card: DeviceCard, vgs):
    """``∂ ln I_spec / ∂V_gs`` [1/V] (the effective-field roll-off)."""
    scale = 6.0 * card.eot_cm
    overdrive = vgs + card.field_vth0_v
    e_eff = np.maximum(overdrive, 0.0) / scale

    def slope(e0, nu):
        ratio = e_eff / e0
        return -(nu / e0) * ratio ** (nu - 1.0) / (1.0 + ratio ** nu)

    return _by_carrier(card, slope) * np.where(overdrive > 0.0,
                                               1.0 / scale, 0.0)


def ids(card: DeviceCard, vgs, vds, *, vth_shift_v=None, ispec_a=None,
        derivs: bool = False):
    """Drain current [A] for NFET-referenced terminal voltages.

    ``vgs`` / ``vds`` [V] broadcast against the card's fields; ``vds``
    is clamped at 0 (callers orient the device so ``V_ds >= 0``).
    ``vth_shift_v`` [V] is added to V_th after the DIBL drop (the
    Monte-Carlo hook of :meth:`repro.device.iv.IVModel.ids`);
    ``ispec_a`` [A] is a precomputed :func:`specific_current_a` at the
    same ``vgs``, which fixed-``V_gs`` root solves reuse across sweeps.

    Returns ``I`` or, with ``derivs=True``, ``(I, ∂I/∂V_gs, ∂I/∂V_ds)``
    [A, A/V, A/V].
    """
    vds = np.maximum(vds, 0.0)
    vt = card.vt_v
    m = card.slope_factor
    vth = card.vth0_v - _dibl_drop(card, vds)
    if vth_shift_v is not None:
        vth = vth + vth_shift_v
    vp = (vgs - vth) / m
    u_fwd = vp / vt
    u_rev = (vp - vds) / vt
    i_f = _ekv_f(u_fwd)
    i_r = _ekv_f(u_rev)
    if ispec_a is None:
        ispec_a = specific_current_a(card, vgs)
    elif derivs:
        raise ParameterError("derivs need the kernel's own I_spec")
    core = ispec_a * (i_f - i_r)
    # Velocity saturation, weighted by inversion level so that weak
    # inversion (diffusion-dominated) is unaffected.
    severity = i_f / (1.0 + i_f)
    v_drive = np.maximum(vp, 2.0 * vt)
    den_dsat = vds + v_drive + 1e-12
    v_dsat = vds * v_drive / den_dsat
    vsat_term = (card.mu_low_cm2_per_v_s * v_dsat) / card.vsat_leff_cm2_per_s
    denom = 1.0 + severity * vsat_term
    current = core / denom
    if not derivs:
        return current

    # dV_p/dV_gs = 1/m; dV_p/dV_ds = (dDIBL/dV_ds)/m.
    b = card.sce_barrier_v
    root = np.sqrt(b * (b + vds))
    ddibl = card.sce_e1_factor + card.sce_e2_factor * (
        b / np.where(root > 0.0, root, 1.0))
    dvp_ds = ddibl / m
    slope_fwd = _ekv_f_slope(u_fwd, i_f) / vt
    slope_rev = _ekv_f_slope(u_rev, i_r) / vt
    dif_gs = slope_fwd / m
    dif_ds = slope_fwd * dvp_ds
    dir_gs = slope_rev / m
    dir_ds = slope_rev * (dvp_ds - 1.0)
    dcore_gs = core * _ispec_log_slope(card, vgs) \
        + ispec_a * (dif_gs - dir_gs)
    dcore_ds = ispec_a * (dif_ds - dir_ds)
    # Velocity-saturation divisor.
    dsev = 1.0 / np.square(1.0 + i_f)
    live = vp > 2.0 * vt
    dvd_gs = np.where(live, 1.0 / m, 0.0)
    dvd_ds = np.where(live, dvp_ds, 0.0)
    den2 = np.square(den_dsat)
    dvdsat_dvd = vds * (vds + 1e-12) / den2
    dvdsat_dvds = v_drive * (v_drive + 1e-12) / den2
    k_vsat = card.mu_low_cm2_per_v_s / card.vsat_leff_cm2_per_s
    dden_gs = dsev * dif_gs * vsat_term \
        + severity * k_vsat * dvdsat_dvd * dvd_gs
    dden_ds = dsev * dif_ds * vsat_term \
        + severity * k_vsat * (dvdsat_dvds + dvdsat_dvd * dvd_ds)
    gm = (dcore_gs - current * dden_gs) / denom
    gds = (dcore_ds - current * dden_ds) / denom
    return current, gm, gds
