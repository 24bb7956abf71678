"""Failure-path coverage for both scaling flows, on the batched engine
and on its scalar twin in :mod:`repro.reference`.

Every ``OptimizationError`` branch the optimizers can take — leakage
budget unreachable from above or below, halo-cannot-rescue, and the
energy factor still falling at the end of ``LENGTH_RANGE`` — plus the
root-device reuse guarantee (no rebuild after the root solve).
"""

import pytest

from repro import perf, reference
from repro.device.mosfet import Polarity
from repro.errors import OptimizationError
from repro.scaling import subvth as subvth_mod
from repro.scaling import supervth as supervth_mod
from repro.scaling.roadmap import NodeSpec, roadmap_nodes
from repro.scaling.subvth import SubVthOptimizer, optimize_doping_for_length
from repro.scaling.supervth import SuperVthOptimizer

SOLVERS = ("batch", "sequential")
#: The optimiser classes and doping solve of each engine, by test id.
SUPER = {"batch": SuperVthOptimizer,
         "sequential": reference.SuperVthOptimizer}
SUB = {"batch": SubVthOptimizer, "sequential": reference.SubVthOptimizer}
DOPING = {"batch": optimize_doping_for_length,
          "sequential": reference.optimize_doping_for_length}

#: A 90nm-like node whose leakage budget is absurdly loose: even the
#: minimum doping leaks less than the target, so the budget binds from
#: the wrong side.
LOOSE_NODE = NodeSpec("loose", 90.0, 65.0, 2.10, 1.2, 1.0, 0)
#: The same node with an unreachably tight budget.
TIGHT_NODE = NodeSpec("tight", 90.0, 65.0, 2.10, 1.2, 1e-30, 0)
#: Very short gate under thick oxide: the long-channel substrate solve
#: succeeds but no halo peak can plug the short-channel leak.
HALO_HOPELESS_NODE = NodeSpec("hopeless", 32.0, 8.0, 2.5, 0.9, 1e-12, 3)


class TestSuperVthFailures:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_budget_unreachable_from_above(self, solver):
        with pytest.raises(OptimizationError,
                           match="budget unreachable from above"):
            SUPER[solver](LOOSE_NODE).solve_substrate()

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_budget_unreachable_from_below(self, solver):
        with pytest.raises(OptimizationError,
                           match="cannot meet leakage budget"):
            SUPER[solver](TIGHT_NODE).solve_substrate()

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_halo_cannot_rescue(self, solver):
        opt = SUPER[solver](HALO_HOPELESS_NODE)
        n_sub = opt.solve_substrate()
        with pytest.raises(OptimizationError,
                           match="halo cannot rescue"):
            opt.solve_halo(n_sub)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_optimize_propagates_halo_failure(self, solver):
        with pytest.raises(OptimizationError,
                           match="halo cannot rescue"):
            SUPER[solver](HALO_HOPELESS_NODE).optimize()


class TestSubVthFailures:
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("target", [1.0, 1e-30],
                             ids=["too-loose", "too-tight"])
    def test_no_doping_meets_target(self, solver, target):
        node = roadmap_nodes()[0]
        with pytest.raises(OptimizationError, match="no doping meets"):
            DOPING[solver](node, node.l_poly_nm, ioff_target=target)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_energy_factor_still_falling_at_range_end(self, solver,
                                                      monkeypatch):
        # Truncate the length search so the energy factor is still
        # decreasing at the top of the grid: the optimiser must refuse
        # rather than silently return an edge design.
        monkeypatch.setattr(subvth_mod, "LENGTH_RANGE", (1.0, 1.08))
        opt = SUB[solver](roadmap_nodes()[2], n_length_points=4)
        with pytest.raises(OptimizationError,
                           match="still flat/falling"):
            opt.optimize()


class TestRootDeviceReuse:
    """After a scalar root solve, the converged device is not rebuilt."""

    def _count_builds(self, module, monkeypatch):
        built = []
        orig = module.build_nfet

        def counting(*args, **kwargs):
            dev = orig(*args, **kwargs)
            built.append(dev)
            return dev

        monkeypatch.setattr(module, "build_nfet", counting)
        return built

    def test_subvth_substrate_solve(self, monkeypatch):
        built = self._count_builds(subvth_mod, monkeypatch)
        node = roadmap_nodes()[1]
        perf.reset()
        dev = subvth_mod._solve_substrate_for_ioff(
            node, 1.5 * node.l_poly_nm, 0.5, 1e-10, Polarity.NFET,
            1.0, 0.30)
        evals = perf.get("optimizer.brentq_residual_evals")
        assert evals > 2
        # One construction per residual evaluation and none beyond: the
        # returned device is the root evaluation itself.
        assert len(built) == evals
        assert any(dev is b for b in built)

    def test_supervth_optimize(self, monkeypatch):
        built = self._count_builds(supervth_mod, monkeypatch)
        node = roadmap_nodes()[0]
        perf.reset()
        dev = reference.SuperVthOptimizer(node).optimize()
        evals = perf.get("optimizer.brentq_residual_evals")
        assert evals > 4
        assert len(built) == evals
        assert any(dev is b for b in built)
