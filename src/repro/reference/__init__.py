"""Reference implementations: the scalar twins of the batched engines.

Every production engine has one public entry point.  The scalar code
the batched engines replaced lives on here, under the same names —
``reference.noise_margins`` beside :func:`repro.circuit.noise_margins`,
``reference.SubVthOptimizer.sweep`` beside
:meth:`repro.scaling.SubVthOptimizer.sweep` — so the parity suites
(``tests/test_*equivalence*.py``) and the speed-up benches compare
``reference.f`` against ``f`` directly.

Lint rule RPR004 holds the contract: every public name here has a
production twin of the same name and is referenced by an equivalence
suite, and no production function takes a ``solver`` switch.  No
production module imports this package.
"""

from .circuit import (
    Inverter,
    InverterChain,
    SramCell,
    butterfly_snm,
    chain_energy_sweep,
    dvs_curve,
    find_vmin,
    hold_snm,
    noise_margins,
    read_snm,
)
from .device import ff_ss_delay_spread
from .mna import (
    LevelShifter,
    bitline_leakage_vs_height,
    gate_delay,
    gate_leakage,
    loaded_read_snm,
    min_convertible_vdd,
    min_write_pulse,
    solve_dc_batch,
    solve_transient_batch,
    write_trip_voltage,
)
from .scaling import (
    DeviceFamily,
    SubVthOptimizer,
    SuperVthOptimizer,
    build_sub_vth_family,
    build_super_vth_design,
    build_super_vth_family,
    derive_flavours,
    headline_under_calibration,
    optimize_doping_for_length,
)
from .tcad import DeviceSimulator
from .variability import delay_distribution, snm_distribution
