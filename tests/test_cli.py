"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "table2" in out

    def test_run_single(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Generalized scaling" in out
        assert "[OK ]" in out

    def test_run_fast_figure(self, capsys):
        assert main(["run", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "S_S" in out

    def test_run_unknown_exits_2_with_clean_error(self, capsys):
        assert main(["run", "fig99"]) == 2
        captured = capsys.readouterr()
        assert "unknown experiment 'fig99'" in captured.err
        assert "table2" in captured.err          # known ids are listed
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_run_rejects_bad_jobs(self, capsys):
        assert main(["run", "table1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_run_multiple_ids(self, capsys):
        assert main(["run", "table1", "eq3"]) == 0
        out = capsys.readouterr().out
        assert out.count("-- completed in") == 2

    def test_run_parallel_jobs(self, capsys):
        # Two experiments over two worker processes; output order and
        # pass/fail must match the sequential run.
        assert main(["run", "table1", "eq3", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.index("Generalized scaling") < out.index("Eq. 3")
        assert "[OK ]" in out

    def test_run_profile_prints_counters(self, capsys):
        assert main(["run", "fig2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "perf counters:" in out
        assert "cache.bracket" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_run_with_plot(self, capsys):
        assert main(["run", "fig2", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "S_S (super-vth)" in out
        assert "+" in out                    # chart frame present

    def test_cards_command(self, capsys):
        assert main(["cards", "sub-vth"]) == 0
        out = capsys.readouterr().out
        assert "family cards: sub-vth" in out
        assert "32nm" in out

    def test_cards_unknown_strategy(self):
        with pytest.raises(SystemExit):
            main(["cards", "quantum-vth"])

    def test_save_family_round_trip(self, tmp_path, capsys):
        path = tmp_path / "family.json"
        assert main(["save-family", "super-vth", str(path)]) == 0
        from repro.io import family_from_dict, load_json
        family = family_from_dict(load_json(path))
        assert family.node_names() == ("90nm", "65nm", "45nm", "32nm")
