"""Circuit layer: inverters, chains, noise margins, delay and energy.

The paper's circuit evidence is built from CMOS inverters: a single
inverter for static noise margins (Fig. 4/10), an FO1-loaded inverter
for delay (Fig. 5/11), and a 30-stage inverter chain with activity
factor 0.1 for energy and V_min (Fig. 6/12).  This package implements
those testbenches on top of the compact device models, plus SRAM and
ring-oscillator extensions.
"""

from .batch import (
    BatchNoiseMargins,
    LOST_REGENERATION_MESSAGES,
    gain_batch,
    lost_regeneration_error,
    noise_margins_batch,
    solve_balance_batch,
    solve_vtc_batch,
)
from .inverter import Inverter
from .snm import NoiseMargins, noise_margins, noise_margins_stack, butterfly_snm
from .delay import DelayResult, fo1_delay, analytic_delay, analytic_delay_batch
from .energy import (
    EnergyBreakdown,
    VminResult,
    chain_energy_per_cycle,
    chain_energy_sweep,
    find_vmin,
)
from .chain import InverterChain
from .ring_oscillator import RingOscillator
from .sram import SramCell, hold_snm, read_snm
from .gates import EquivalentGate, nand2, nor2
from .vmin_model import vmin_closed_form, k_vmin
from .netlist import Circuit, GROUND
from .analytic_vtc import vin_of_vout_matched, analytic_snm_matched
from .wires import WireModel
from .logical_effort import size_path, best_stage_count
from .level_shifter import LevelShifter, min_convertible_vdd
from .cell_library import CellLibrary, characterise_design
from .dvs import energy_per_cycle_at_throughput, dvs_range

__all__ = [
    "BatchNoiseMargins",
    "LOST_REGENERATION_MESSAGES",
    "gain_batch",
    "lost_regeneration_error",
    "noise_margins_batch",
    "solve_balance_batch",
    "solve_vtc_batch",
    "Inverter",
    "NoiseMargins",
    "noise_margins",
    "noise_margins_stack",
    "butterfly_snm",
    "DelayResult",
    "fo1_delay",
    "analytic_delay",
    "analytic_delay_batch",
    "EnergyBreakdown",
    "chain_energy_per_cycle",
    "chain_energy_sweep",
    "find_vmin",
    "VminResult",
    "InverterChain",
    "RingOscillator",
    "SramCell",
    "hold_snm",
    "read_snm",
    "EquivalentGate",
    "nand2",
    "nor2",
    "vmin_closed_form",
    "k_vmin",
    "Circuit",
    "GROUND",
    "vin_of_vout_matched",
    "analytic_snm_matched",
    "WireModel",
    "size_path",
    "best_stage_count",
    "LevelShifter",
    "min_convertible_vdd",
    "CellLibrary",
    "characterise_design",
    "energy_per_cycle_at_throughput",
    "dvs_range",
]
