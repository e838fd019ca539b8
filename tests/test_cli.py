"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_faults(capsys):
    assert main(["list-faults"]) == 0
    out = capsys.readouterr().out
    assert "f1" in out and "f12" in out
    assert "memcached" in out and "pmemkv" in out


def test_study(capsys):
    assert main(["study"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "logic error" in out
    assert "Type II" in out


def test_analyze(capsys):
    assert main(["analyze", "--system", "pmemkv"]) == 0
    out = capsys.readouterr().out
    assert "PDG edges" in out
    assert "PM instructions" in out


def test_run_fast_fault(capsys):
    assert main(["run", "--fault", "f11", "--solution", "arthas"]) == 0
    out = capsys.readouterr().out
    assert "recovered=True" in out


def test_run_failing_solution_returns_nonzero(capsys):
    assert main(["run", "--fault", "f11", "--solution", "arckpt"]) == 1


def test_cluster_status(capsys):
    assert main(["cluster-status"]) == 0
    out = capsys.readouterr().out
    assert "recovered=True" in out
    assert "demoted" in out and "serving" in out


def test_cluster_status_heals_a_leak_fault(capsys):
    # leak faults manifest only through the PM-usage monitor, which the
    # shared detector attaches
    assert main(["cluster-status", "--fid", "f8"]) == 0
    assert "via leak-fix" in capsys.readouterr().out


def test_cluster_sweep_quick_check(capsys):
    # --quick drift-checks against the committed report (CI drift job)
    assert main(["cluster-sweep", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "converged" in out


def test_sweep_flag_set_rejects_removed_flags():
    # the four sweeps accept --seed --quick --out (+ the matrix's
    # --jobs and fuzz's --emit-registry) and nothing else: --check
    # folded into --quick, and matrix-all runs one --seed
    for argv in (
        ["matrix-all", "--seeds", "1"],
        ["inject-sweep", "--check"],
        ["fuzz-sweep", "--check"],
        ["cluster-sweep", "--check"],
        ["inject-sweep", "--faults", "f9"],
        ["inject-sweep", "--solution", "arthas"],
        ["inject-sweep", "--kinds", "crash"],
        ["inject-sweep", "--max-per-site", "1"],
        ["fuzz-sweep", "--systems", "redis"],
        ["fuzz-sweep", "--trials", "3"],
        ["fuzz-sweep", "--max-per-system", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2, argv


def test_parser_rejects_unknown():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--fault", "f99"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nonsense"])
