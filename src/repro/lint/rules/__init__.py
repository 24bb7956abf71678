"""Bundled rule set — importing this package registers every rule.

One module per invariant family:

================  ==========================================  =============
module            rules                                       motivated by
================  ==========================================  =============
``numerics``      RPR001 float-literal equality               PR 4
``exceptions``    RPR002 broad except without re-raise        PR 3
``determinism``   RPR003 wall clock / global RNG hazards      PR 4
``parity``        RPR004 reference parity, RPR007 bench gaps  PRs 1-4
``naming``        RPR005 SI-unit suffixes                     PR 0
``perf_counters`` RPR006 counter registry                     PRs 1-4
``state``         RPR008 mutable defaults / module state      PR 4
``rootsolve``     RPR009 hand-rolled masked solve loops       PR 6
``docstrings``    RPR010 service docstring unit declarations  PR 7
``units_flow``    RPR011 mixed-unit arithmetic/rebinds,       PR 10
                  RPR012 call-site unit conflicts
================  ==========================================  =============
"""

from __future__ import annotations

from . import (determinism, docstrings, exceptions, naming, numerics,
               parity, perf_counters, rootsolve, state, units_flow)

__all__ = ["determinism", "docstrings", "exceptions", "naming",
           "numerics", "parity", "perf_counters", "rootsolve", "state",
           "units_flow"]
