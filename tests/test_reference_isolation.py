"""The reference twins stay out of production imports.

``repro.reference`` exists for the parity suites and benches; no
production module may import it, so it can never slow ``import repro``
or leak a scalar path into a production flow.  The rebinding helper
behind the flow twins is checked here too.
"""

import pathlib
import subprocess
import sys

import pytest

from repro.circuit import sram_array
from repro.circuit.sram import SramCell
from repro.reference._rebind import rebind

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

IMPORT_ALL = """
import importlib, pathlib, sys
src = pathlib.Path(sys.argv[1])
for path in sorted((src / "repro").rglob("*.py")):
    name = ".".join(path.relative_to(src).with_suffix("").parts)
    name = name.removesuffix(".__init__")
    if name.startswith("repro.reference") or name.endswith("__main__"):
        continue
    importlib.import_module(name)
leaked = sorted(m for m in sys.modules if m.startswith("repro.reference"))
print(",".join(leaked))
"""


def test_production_modules_do_not_import_reference():
    out = subprocess.run([sys.executable, "-c", IMPORT_ALL, str(SRC)],
                         capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": str(SRC)}, timeout=300)
    assert out.stdout.strip() == ""


def test_rebind_rejects_names_the_flow_does_not_use():
    with pytest.raises(NameError, match="solve_dc_batch_typo"):
        rebind(sram_array.min_write_pulse, solve_dc_batch_typo=None)


def test_rebind_reaches_nested_functions(nfet90, pfet90):
    cell = SramCell(pulldown=nfet90.with_width_um(2.0), pullup=pfet90,
                    access=nfet90, vdd=0.25)
    calls = []

    def fake_transient(*args, **kwargs):
        calls.append(kwargs["stimulus"])
        raise RuntimeError("stop")

    twin = rebind(sram_array.min_write_pulse,
                  solve_transient_batch=fake_transient)
    assert twin.__name__ == "min_write_pulse"
    assert twin.__kwdefaults__ == sram_array.min_write_pulse.__kwdefaults__
    with pytest.raises(RuntimeError, match="stop"):
        twin(cell, 2, t_max_s=1e-9)
    assert calls and "wl0" in calls[0]
