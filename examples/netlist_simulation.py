"""SPICE-style netlist simulation with the built-in nodal engine.

Three mini-studies on the 32nm sub-V_th devices, all through the
general-purpose netlist/MNA engine (rather than the specialised
inverter solvers).  The engine is batched; with scalar stimulus, as
here, it solves one circuit and returns plain waveforms:

1. a 5-stage ring oscillator — transient simulation, measured
   frequency vs the analytic estimate;
2. an SRAM latch write — drive the cell to the opposite state through
   an access transistor and watch it regenerate;
3. a logical-effort-sized buffer chain driving a large load — the
   sized chain beats the naive single-gate driver.

Run:  python examples/netlist_simulation.py   (~5 s)
"""

import numpy as np

from repro.circuit import Circuit, RingOscillator
from repro.circuit.logical_effort import best_stage_count, size_path
from repro.circuit.mna_batch import solve_transient_batch
from repro.scaling import build_sub_vth_family
from repro.units import format_quantity

VDD = 0.30


def ring_oscillator_study(design) -> None:
    print("== 5-stage ring oscillator (32nm sub-V_th) ==")
    n_dev, p_dev = design.nfet, design.pfet
    c = Circuit()
    c.add_vsource("vdd", "vdd", VDD)
    nodes = [f"n{i}" for i in range(5)]
    c_load = 1.5e-15
    for i in range(5):
        c.add_inverter(f"i{i}", nodes[i], nodes[(i + 1) % 5], "vdd",
                       n_dev, p_dev)
        c.add_capacitor(f"cl{i}", nodes[(i + 1) % 5], "0", c_load)

    estimate = RingOscillator(design.inverter(VDD), n_stages=5)
    t_est = 1.0 / estimate.frequency_hz()
    seed = {f"n{i}": (0.0 if i % 2 == 0 else VDD) for i in range(5)}
    result = solve_transient_batch(
        c, 6.0 * t_est, t_est / 60.0, initial=seed,
        use_initial_conditions=True)

    wave = result.voltages["n0"]
    above = wave >= VDD / 2.0
    edges = np.flatnonzero(~above[:-1] & above[1:])
    if edges.size >= 2:
        period = float(np.mean(np.diff(result.time_s[edges])))
        print(f"measured frequency : "
              f"{format_quantity(1.0 / period, 'Hz')}")
    print(f"analytic estimate  : "
          f"{format_quantity(estimate.frequency_hz(), 'Hz')} "
          "(FO1 model; the netlist adds explicit wire load)")
    print()


def sram_write_study(design) -> None:
    print("== SRAM latch write (32nm sub-V_th) ==")
    n_dev, p_dev = design.nfet, design.pfet
    c = Circuit()
    c.add_vsource("vdd", "vdd", VDD)
    c.add_inverter("i1", "q", "qb", "vdd", n_dev, p_dev)
    c.add_inverter("i2", "qb", "q", "vdd", n_dev, p_dev)
    c.add_capacitor("cq", "q", "0", 1e-15)
    c.add_capacitor("cqb", "qb", "0", 1e-15)
    # Access transistor from a grounded bitline, gated by a wordline
    # pulse: writes a 0 into the q node.
    c.add_vsource("bl", "bl_node", 0.001)
    c.add_vsource("wl", "wl_node",
                  lambda t: VDD if 1e-7 < t < 6e-7 else 0.0)
    c.add_mosfet("max", "q", "wl_node", "bl_node",
                 n_dev.with_width_um(2.0))
    c.add_resistor("rbl", "bl_node", "0", 1e3)

    result = solve_transient_batch(
        c, 1.2e-6, 5e-9, initial={"q": VDD, "qb": 0.0},
        use_initial_conditions=True)
    q_start = result.voltages["q"][0]
    q_end = result.voltages["q"][-1]
    qb_end = result.voltages["qb"][-1]
    print(f"q before write : {q_start:.3f} V (holding a 1)")
    print(f"q after write  : {q_end:.3f} V, qb = {qb_end:.3f} V "
          f"({'flipped' if q_end < VDD / 2 < qb_end else 'FAILED'})")
    print()


def buffer_sizing_study(design) -> None:
    print("== Driving a 100x load: logical-effort sizing ==")
    inv = design.inverter(VDD)
    total_effort = 100.0
    naive = size_path(inv, ["inv"], total_effort)
    n_opt, _delay = best_stage_count(inv, total_effort)
    sized = size_path(inv, ["inv"] * n_opt, total_effort)
    print(f"single stage       : {format_quantity(naive.delay_s, 's')}")
    print(f"{n_opt}-stage sized chain: "
          f"{format_quantity(sized.delay_s, 's')} "
          f"({naive.delay_s / sized.delay_s:.1f}x faster)")
    print(f"stage sizes        : "
          + " : ".join(f"{s:.1f}" for s in sized.relative_sizes))


def main() -> None:
    design = build_sub_vth_family().design("32nm")
    ring_oscillator_study(design)
    sram_write_study(design)
    buffer_sizing_study(design)


if __name__ == "__main__":
    main()
