"""Unified weak-to-strong inversion I-V model (EKV-style interpolation).

The circuits in the paper operate both deep in subthreshold
(V_dd = 250 mV, V_th > 400 mV) and at nominal supply (0.9-1.2 V), so a
single current expression must cover both regimes smoothly:

``I_ds = I_spec [ F((V_p - V_s)/v_T) - F((V_p - V_d)/v_T) ]``

with the EKV interpolation function ``F(u) = ln(1 + e^{u/2})^2``, pinch
-off voltage ``V_p = (V_gs - V_th)/m`` and specific current
``I_spec = 2 m mu_eff C_ox v_T^2 W / L_eff``.

* In weak inversion this reduces exactly to the paper's Eq. 1
  (exponential in ``(V_gs - V_th)/(m v_T)`` with the
  ``1 - e^{-V_ds/v_T}`` drain factor).
* In strong inversion it reduces to the square-law with saturation.

Short-channel reality enters through three hooks: the slope factor
``m`` is derived from the *short-channel* Eq. 2(b) slope (so extracted
S_S matches the analytic model), V_th carries DIBL from the quasi-2-D
model, and an inversion-level-weighted velocity-saturation factor
limits the strong-inversion current.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import LN10, T_ROOM, thermal_voltage
from ..errors import ParameterError
from ..materials.mobility import MobilityModel
from ..materials.oxide import GateStack
from . import ekv
from .doping import DopingProfile
from .electrostatics import self_consistent_channel_doping
from .geometry import DeviceGeometry
from .subthreshold import inverse_subthreshold_slope
from .threshold import vth_long_channel


@dataclass(frozen=True)
class IVModel:
    """Compact I-V model bound to one device description.

    All expensive self-consistency (halo <-> depletion width) is
    resolved once at construction; per-call evaluation is vectorised
    numpy, cheap enough for Newton loops and transient integration.

    The model is polarity-agnostic: it always computes an n-channel-
    referenced current, and :class:`repro.device.mosfet.MOSFET` maps
    PFET terminal voltages onto it by symmetry.
    """

    geometry: DeviceGeometry
    profile: DopingProfile
    stack: GateStack
    mobility: MobilityModel = field(default_factory=MobilityModel)
    temperature_k: float = T_ROOM
    #: Additive V_th perturbation [V] — the hook Monte-Carlo variability
    #: analysis uses to model random dopant fluctuation.
    vth_offset_v: float = 0.0

    # Derived, filled in __post_init__ (frozen dataclass -> object.__setattr__).
    _m: float = field(init=False, repr=False, default=0.0)
    _vth0: float = field(init=False, repr=False, default=0.0)
    _n_eff: float = field(init=False, repr=False, default=0.0)
    _w_dep: float = field(init=False, repr=False, default=0.0)
    _card: ekv.DeviceCard = field(init=False, repr=False, compare=False,
                                  default=None)

    def __post_init__(self) -> None:
        n_eff, w_dep = self_consistent_channel_doping(
            self.profile, self.geometry.l_eff_cm,
            temperature_k=self.temperature_k)
        object.__setattr__(self, "_n_eff", n_eff)
        object.__setattr__(self, "_w_dep", w_dep)
        object.__setattr__(self, "_vth0", vth_long_channel(
            n_eff, self.stack, self.temperature_k))
        # The pieces of delta_vth_sce go on the card, so vth(vds) is
        # closed-form.
        from ..materials.silicon import built_in_potential, fermi_potential
        from .threshold import N_SOURCE_DRAIN, characteristic_length
        psi_s = 2.0 * fermi_potential(n_eff, self.temperature_k)
        vbi = built_in_potential(N_SOURCE_DRAIN, n_eff, self.temperature_k)
        barrier = max(vbi - psi_s, 0.0)
        lt = characteristic_length(self.stack, w_dep)
        l_eff = self.geometry.l_eff_cm
        # Slope factor from the short-channel Eq. 2(b) slope so that
        # S_S extracted from this model's I-V matches the analytic S_S.
        ss = inverse_subthreshold_slope(self.stack, w_dep, l_eff,
                                        self.temperature_k)
        vt = thermal_voltage(self.temperature_k)
        object.__setattr__(self, "_m", ss / (LN10 * vt))
        object.__setattr__(self, "_card", ekv.DeviceCard(
            vth0_v=self._vth0 + self.vth_offset_v,
            field_vth0_v=self._vth0,
            slope_factor=self._m,
            sce_barrier_v=barrier,
            sce_e1_factor=np.exp(-l_eff / (2.0 * lt)),
            sce_e2_factor=np.exp(-l_eff / lt),
            vt_v=vt,
            mu_low_cm2_per_v_s=self.mobility.low_field(n_eff),
            vsat_leff_cm2_per_s=self.mobility.vsat() * l_eff,
            eot_cm=self.stack.eot_cm,
            cox_f_per_cm2=self.stack.capacitance_per_area,
            aspect_ratio=self.geometry.aspect_ratio,
            electron=self.mobility.carrier == "electron",
        ))

    # -- cached device state ------------------------------------------------

    @property
    def card(self) -> ekv.DeviceCard:
        """The device as an :class:`repro.device.ekv.DeviceCard`."""
        return self._card

    @property
    def n_eff_cm3(self) -> float:
        """Self-consistent effective channel doping [cm^-3]."""
        return self._n_eff

    @property
    def w_dep_cm(self) -> float:
        """Self-consistent depletion width [cm]."""
        return self._w_dep

    @property
    def slope_factor(self) -> float:
        """Effective slope factor m (includes short-channel degradation)."""
        return self._m

    @property
    def ss_v_per_decade(self) -> float:
        """Inverse subthreshold slope [V/dec] (equals Eq. 2(b))."""
        return LN10 * thermal_voltage(self.temperature_k) * self._m

    def vth(self, vds: float | np.ndarray = 0.05) -> float | np.ndarray:
        """Threshold voltage at drain bias ``vds`` [V] (DIBL included)."""
        out = ekv.threshold_v(self._card, vds)
        return float(out) if np.isscalar(vds) else out

    # -- current -------------------------------------------------------------

    def i_spec(self, vgs: float | np.ndarray) -> float | np.ndarray:
        """Specific current ``2 m mu_eff C_ox v_T^2 W/L_eff`` [A]."""
        return ekv.specific_current_a(self._card, vgs)

    def i0(self) -> float:
        """Eq. 1 prefactor equivalent: the current at V_gs = V_th [A]."""
        return float(self.i_spec(self._vth0)) * np.log(2.0) ** 2

    def ids(self, vgs, vds, vth_shift_v=0.0):
        """Drain current [A] for NFET-referenced terminal voltages.

        Accepts scalars or broadcastable arrays.  ``vds`` must be >= 0
        (the model is source-referenced; the MOSFET facade handles the
        swap for reverse operation).

        ``vth_shift_v`` [V] is an additive V_th perturbation applied per
        evaluation point; an array here is equivalent to evaluating a
        :meth:`vth`-offset copy of the device at each element (the
        offset enters only through V_th, never ``i_spec``), which is
        what lets Monte-Carlo trials share one device object.
        """
        vgs_arr = np.asarray(vgs, dtype=float)
        vds_arr = np.asarray(vds, dtype=float)
        shift_arr = np.asarray(vth_shift_v, dtype=float)
        if np.any(vds_arr < -1e-12):
            raise ParameterError("ids() requires vds >= 0; swap terminals")
        current = ekv.ids(self._card, vgs_arr, vds_arr,
                          vth_shift_v=shift_arr)
        if np.isscalar(vgs) and np.isscalar(vds) and shift_arr.ndim == 0:
            return float(current)
        return current

    def i_off(self, vdd: float) -> float:
        """Off-state leakage ``I(V_gs=0, V_ds=V_dd)`` [A]."""
        return float(self.ids(0.0, vdd))

    def i_on(self, vdd: float) -> float:
        """On-current ``I(V_gs=V_ds=V_dd)`` [A]."""
        return float(self.ids(vdd, vdd))

    def id_vg_curve(self, vds: float, vgs_grid: np.ndarray) -> np.ndarray:
        """Transfer curve I(V_gs) at fixed ``vds``; returns currents [A]."""
        return np.asarray(self.ids(np.asarray(vgs_grid, dtype=float),
                                   np.full_like(np.asarray(vgs_grid,
                                                           dtype=float), vds)))
