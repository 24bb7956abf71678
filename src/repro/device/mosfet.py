"""The MOSFET facade: one object per device, tying together geometry,
doping, gate stack, threshold, capacitance and I-V sub-models.

PFETs are modelled "analogously" to NFETs exactly as the paper does
(Section 2.2): the same electrostatic formulation with hole mobility
and a p+ gate; the circuit layer maps PFET terminal voltages onto the
source-referenced magnitudes this model expects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from scipy.optimize import brentq

from ..constants import T_ROOM, nm_to_cm, CM_PER_UM
from ..errors import ParameterError
from ..materials.mobility import MobilityModel
from ..materials.oxide import GateStack, sio2
from .capacitance import CapacitanceModel
from .doping import DopingProfile, HaloImplant
from .geometry import DeviceGeometry
from .iv import IVModel
from .threshold import ThresholdModel

#: Constant-current V_th extraction criterion: I = VTH_CC_A * W/L_eff.
VTH_CC_A: float = 1.0e-7


class Polarity(enum.Enum):
    """Channel polarity of a MOSFET."""

    NFET = "nfet"
    PFET = "pfet"


@dataclass(frozen=True)
class MOSFET:
    """A bulk MOSFET with the paper's four scaling parameters.

    Construction resolves the halo/depletion self-consistency once; all
    derived metrics (S_S, V_th, I_on, I_off, capacitances) are then
    cheap property accesses.  Use :func:`nfet` / :func:`pfet` for the
    common construction path from nanometre inputs.
    """

    polarity: Polarity
    geometry: DeviceGeometry
    profile: DopingProfile
    stack: GateStack
    temperature_k: float = T_ROOM
    #: Additive V_th perturbation [V] for variability studies.
    vth_offset_v: float = 0.0

    _iv: IVModel = field(init=False, repr=False, default=None)
    _cap: CapacitanceModel = field(init=False, repr=False, default=None)
    _threshold: ThresholdModel = field(init=False, repr=False, default=None)
    #: Per-instance memo for scalar metrics (i_off/i_on/vth_sat_cc):
    #: devices are immutable, and tables, sweeps and selection rules
    #: re-request the same metric at the same bias.
    _metrics: dict = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        carrier = "electron" if self.polarity is Polarity.NFET else "hole"
        mobility = MobilityModel(carrier=carrier,
                                 temperature_k=self.temperature_k)
        # For the PFET we reuse the n-channel-referenced electrostatics
        # (symmetric device assumption, as in the paper); the p+ gate on
        # an n-body yields the mirror-image flat band, so magnitudes match
        # when we keep the n+poly formulation with hole mobility.
        iv = IVModel(self.geometry, self.profile, self.stack,
                     mobility=mobility, temperature_k=self.temperature_k,
                     vth_offset_v=self.vth_offset_v)
        object.__setattr__(self, "_iv", iv)
        object.__setattr__(self, "_cap", CapacitanceModel(
            self.geometry, self.profile, self.stack, self.temperature_k))
        object.__setattr__(self, "_threshold", ThresholdModel(
            self.geometry, self.profile, self.stack, self.temperature_k,
            gate="n+poly"))
        object.__setattr__(self, "_metrics", {})

    # -- sub-models ----------------------------------------------------------

    @property
    def iv(self) -> IVModel:
        """The unified I-V model."""
        return self._iv

    @property
    def capacitance(self) -> CapacitanceModel:
        """The capacitance model."""
        return self._cap

    @property
    def threshold(self) -> ThresholdModel:
        """The threshold (roll-off/roll-up) model."""
        return self._threshold

    # -- derived metrics -------------------------------------------------------

    @property
    def ss_v_per_dec(self) -> float:
        """Inverse subthreshold slope [V/decade]."""
        return self._iv.ss_v_per_decade

    @property
    def ss_mv_per_dec(self) -> float:
        """Inverse subthreshold slope [mV/decade]."""
        return 1000.0 * self._iv.ss_v_per_decade

    @property
    def slope_factor(self) -> float:
        """Effective slope factor m."""
        return self._iv.slope_factor

    @property
    def n_eff_cm3(self) -> float:
        """Effective channel doping [cm^-3]."""
        return self._iv.n_eff_cm3

    def vth(self, vds: float = 0.05) -> float:
        """Model threshold voltage at drain bias ``vds`` [V]."""
        return float(self._iv.vth(vds))

    def vth_sat_cc(self, vdd: float) -> float:
        """Saturation V_th by the constant-current criterion [V].

        The industrial extraction the paper's Table 2 reports: the gate
        voltage at which ``I_ds = 100 nA x W/L_eff`` with
        ``V_ds = V_dd``.
        """
        key = ("vth_sat_cc", vdd)
        if key in self._metrics:
            return self._metrics[key]
        target = VTH_CC_A * self.geometry.aspect_ratio

        def residual(vgs: float) -> float:
            return self.ids(vgs, vdd) - target

        lo, hi = -0.5, 2.0
        if residual(lo) > 0.0 or residual(hi) < 0.0:
            raise ParameterError(
                "constant-current criterion not bracketed; device far "
                "outside calibrated regime"
            )
        value = float(brentq(residual, lo, hi, xtol=1e-6))
        self._metrics[key] = value
        return value

    def ids(self, vgs, vds, vth_shift_v=0.0):
        """Drain current [A] for source-referenced voltage magnitudes.

        For a PFET pass ``vgs = V_sg`` and ``vds = V_sd`` (both
        positive in normal operation).  ``vth_shift_v`` [V] perturbs V_th
        per evaluation point (array-native Monte Carlo; see
        :meth:`IVModel.ids`).
        """
        return self._iv.ids(vgs, vds, vth_shift_v)

    def i_off(self, vdd: float) -> float:
        """Leakage at V_gs = 0, V_ds = V_dd [A]."""
        key = ("i_off", vdd)
        if key not in self._metrics:
            self._metrics[key] = self._iv.i_off(vdd)
        return self._metrics[key]

    def i_on(self, vdd: float) -> float:
        """On current at V_gs = V_ds = V_dd [A]."""
        key = ("i_on", vdd)
        if key not in self._metrics:
            self._metrics[key] = self._iv.i_on(vdd)
        return self._metrics[key]

    def i_off_per_um(self, vdd: float) -> float:
        """Leakage normalised per µm of width [A/µm]."""
        return self.i_off(vdd) / self.geometry.width_um

    def i_on_per_um(self, vdd: float) -> float:
        """On current normalised per µm of width [A/µm]."""
        return self.i_on(vdd) / self.geometry.width_um

    def on_off_ratio(self, vdd: float) -> float:
        """I_on / I_off at supply ``vdd``."""
        return self.i_on(vdd) / self.i_off(vdd)

    def intrinsic_delay(self, vdd: float) -> float:
        """Intrinsic delay metric ``tau = C_g V_dd / I_on`` [s] (Table 2)."""
        return self._cap.c_gate * vdd / self.i_on(vdd)

    def c_gate_eff(self, vdd: float) -> float:
        """Bias-aware gate input capacitance at supply ``vdd`` [F].

        Deep subthreshold supplies see the depletion-limited weak-
        inversion capacitance; nominal supplies the full C_ox-based
        value (see :meth:`CapacitanceModel.c_gate_effective`).
        """
        return self._cap.c_gate_effective(vdd, self.vth(vdd),
                                          self.slope_factor)

    # -- transforms ---------------------------------------------------------

    def with_profile(self, profile: DopingProfile) -> "MOSFET":
        """Copy with a different doping profile."""
        return replace(self, profile=profile)

    def with_geometry(self, geometry: DeviceGeometry) -> "MOSFET":
        """Copy with a different geometry."""
        return replace(self, geometry=geometry)

    def with_width_um(self, width_um: float) -> "MOSFET":
        """Copy resized to ``width_um`` [um]."""
        return replace(
            self, geometry=self.geometry.with_width(width_um * CM_PER_UM)
        )

    def with_vth_offset(self, offset_v: float) -> "MOSFET":
        """Copy with an additive V_th perturbation ``offset_v`` [V]
        (variability studies)."""
        return replace(self, vth_offset_v=offset_v)


def _build(polarity: Polarity, l_poly_nm: float, t_ox_nm: float,
           n_sub_cm3: float, n_p_halo_cm3: float, width_um: float,
           reference_nm: float | None, temperature_k: float) -> MOSFET:
    geometry = DeviceGeometry.from_nm(l_poly_nm, width_um=width_um,
                                      reference_nm=reference_nm)
    halo = None
    if n_p_halo_cm3 > 0.0:
        halo = HaloImplant.for_geometry(geometry, n_p_halo_cm3)
    profile = DopingProfile(n_sub_cm3=n_sub_cm3, halo=halo)
    return MOSFET(polarity=polarity, geometry=geometry, profile=profile,
                  stack=sio2(nm_to_cm(t_ox_nm)), temperature_k=temperature_k)


def nfet(l_poly_nm: float, t_ox_nm: float, n_sub_cm3: float,
         n_p_halo_cm3: float = 0.0, width_um: float = 1.0,
         reference_nm: float | None = None,
         temperature_k: float = T_ROOM) -> MOSFET:
    """Build an NFET from nanometre-scale inputs.

    Geometry: gate ``l_poly_nm`` [nm], oxide ``t_ox_nm`` [nm],
    ``width_um`` [um], parasitics scaled from ``reference_nm``
    [nm].  Doping: substrate ``n_sub_cm3`` [cm3], halo peak
    ``n_p_halo_cm3`` [cm3].  Evaluated at ``temperature_k`` [K].

    >>> dev = nfet(l_poly_nm=65, t_ox_nm=2.1, n_sub_cm3=1.5e18,
    ...            n_p_halo_cm3=2.1e18)
    >>> 0.06 < dev.ss_v_per_dec < 0.11
    True
    """
    return _build(Polarity.NFET, l_poly_nm, t_ox_nm, n_sub_cm3,
                  n_p_halo_cm3, width_um, reference_nm, temperature_k)


def pfet(l_poly_nm: float, t_ox_nm: float, n_sub_cm3: float,
         n_p_halo_cm3: float = 0.0, width_um: float = 2.0,
         reference_nm: float | None = None,
         temperature_k: float = T_ROOM) -> MOSFET:
    """Build a PFET; the default width compensates hole mobility.

    Geometry: gate ``l_poly_nm`` [nm], oxide ``t_ox_nm`` [nm],
    ``width_um`` [um], parasitics scaled from ``reference_nm``
    [nm].  Doping: substrate ``n_sub_cm3`` [cm3], halo peak
    ``n_p_halo_cm3`` [cm3].  Evaluated at ``temperature_k`` [K].
    """
    return _build(Polarity.PFET, l_poly_nm, t_ox_nm, n_sub_cm3,
                  n_p_halo_cm3, width_um, reference_nm, temperature_k)
