import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import seer_lab
from helpers import JSON_SCALARS, JSON_VALUES
from seer_lab import classical, cli, games, numkit, povm, quantum


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    with resources.files("seer_lab.schemas").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


def test_bounds_ks_ncycle_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "ks_ncycle", "--n", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["results"]["classical"] == pytest.approx(0.8)
    assert doc["results"]["quantum"] == pytest.approx(2 / math.sqrt(5), abs=1e-9)
    assert doc["results"]["certificate"].startswith("ok")


def test_bounds_bell_ring_values(capsys):
    code, out, _ = run_cli(capsys, "bounds", "bell_ring", "--n", "3", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["classical"] == pytest.approx(7 / 9, abs=1e-9)
    assert doc["results"]["quantum"] == pytest.approx(5 / 6, abs=1e-9)


def test_bounds_pnc(capsys):
    code, out, _ = run_cli(capsys, "bounds", "pnc", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["classical"] == pytest.approx(7 / 9, abs=1e-9)
    assert doc["results"]["quantum"] == pytest.approx(5 / 6, abs=1e-9)


def test_bounds_pnc_refuses_other_n(capsys):
    for n in ("1", "5", "7"):
        code, out, err = run_cli(capsys, "bounds", "pnc", "--n", n)
        assert (code, out) == (2, "")
        assert err == "error: the pnc game is defined for n=3 only\n"
    code, out, _ = run_cli(capsys, "bounds", "pnc", "--n", "3")
    assert code == 0
    assert "n            3\n" in out


def test_bounds_requires_valid_n(capsys):
    code, _, err = run_cli(capsys, "bounds", "ks_ncycle", "--n", "4")
    assert code == 2
    assert "odd" in err
    code, _, _ = run_cli(capsys, "bounds", "ks_ncycle", "--n", "3")
    assert code == 2  # three pairwise commuting projectors: no quantum gap


def test_bounds_ks_ncycle_cap(capsys):
    code, out, _ = run_cli(capsys, "bounds", "ks_ncycle", "--n", str(cli.MAX_SWEEP_N), "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["n"] == cli.MAX_SWEEP_N
    assert results["classical"] == pytest.approx(1 - 1 / cli.MAX_SWEEP_N, abs=1e-12)
    assert results["certificate"].startswith("ok")
    for n in (cli.MAX_SWEEP_N + 2, games.MAX_N, 10**30 + 1):
        code, out, err = run_cli(capsys, "bounds", "ks_ncycle", "--n", str(n))
        assert (code, out) == (2, "")
        assert err == f"error: ks_ncycle is limited to n <= {cli.MAX_SWEEP_N}\n"


@pytest.mark.parametrize("family", ["bell_ring", "odd_cycle"])
def test_bounds_beyond_local_bound_cap(capsys, family):
    # n = 21 was past the old 2^n local_bound's cap; both families now stop at
    # classical.MAX_N, and cap + 1 is even, so cap + 2 is the first n refused.
    code, out, err = run_cli(capsys, "bounds", family, "--n", "21", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["classical"] == pytest.approx(
        1 - 2 / 63 if family == "bell_ring" else 1 - 1 / 42, abs=1e-12)
    for n in (classical.MAX_N + 2, 10**30 + 1):
        code, out, err = run_cli(capsys, "bounds", family, "--n", str(n))
        assert (code, out) == (2, "")
        assert err == f"error: {family} is limited to n <= {classical.MAX_N}\n"


def test_bounds_odd_cycle_at_its_cap(capsys):
    code, out, err = run_cli(capsys, "bounds", "odd_cycle", "--n", str(classical.MAX_N), "--json")
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["n"] == classical.MAX_N
    assert results["classical"] == pytest.approx(1 - 1 / (2 * classical.MAX_N), abs=1e-12)
    code, out, err = run_cli(capsys, "bounds", "bell_ring", "--n", str(classical.MAX_N), "--json")
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["n"] == classical.MAX_N
    assert results["classical"] == pytest.approx(1 - 2 / (3 * classical.MAX_N), abs=1e-12)
    certificate = re.fullmatch(r"ok \(residual (\S+)\)", results["certificate"])
    assert certificate and float(certificate[1]) < 1e-10


def test_game_n_cap(capsys):
    code, out, _ = run_cli(capsys, "game", "seer_ncycle", "--n", str(games.MAX_N),
                           "--strategy", "foil", "--trials", "10", "--json")
    assert code == 0
    assert json.loads(out)["results"]["n"] == games.MAX_N
    for kind in ("seer_ncycle", "bipartite_os", "odd_cycle"):
        # cap + 1 is even; cap + 2 is the first odd n past the cap.
        for n in (games.MAX_N + 1, 10**30 + 1, games.MAX_N + 2):
            code, out, err = run_cli(capsys, "game", kind, "--n", str(n), "--trials", "10")
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1
        assert err == f"error: games are limited to n <= {games.MAX_N}\n"


def test_game_classical_best_at_the_cap(capsys):
    code, out, err = run_cli(capsys, "game", "bipartite_os", "--n", str(games.MAX_N),
                             "--strategy", "classical_best", "--trials", "10", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["expected_rate"] == pytest.approx(1 - 2 / (3 * games.MAX_N), abs=1e-12)


def test_byte_identical_reruns(capsys):
    args = ("game", "bipartite_os", "--n", "3", "--strategy", "quantum",
            "--trials", "20000", "--seed", "42", "--json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_game_json_fields(capsys):
    code, out, _ = run_cli(
        capsys, "game", "diachronic", "--strategy", "quantum",
        "--trials", "50000", "--seed", "7", "--json",
    )
    doc = json.loads(out)
    assert code == 0
    jsonschema.validate(doc, load_schema())
    assert doc["seed"] == 7
    assert doc["results"]["expected_rate"] == pytest.approx(5 / 6, abs=1e-9)
    assert doc["results"]["sigma_distance"] < 5
    assert "workers" not in doc["results"]


def test_game_foil_rate_one(capsys):
    code, out, _ = run_cli(
        capsys, "game", "bipartite_os", "--n", "3", "--strategy", "foil",
        "--trials", "5000", "--seed", "1", "--json",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["empirical_rate"] == 1.0


def test_povm_presets(capsys):
    code, out, _ = run_cli(capsys, "povm", "--axes", "orthogonal3", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["pair"] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert doc["results"]["triple"] == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    code, out, _ = run_cli(capsys, "povm", "--axes", "trine3", "--json")
    doc = json.loads(out)
    assert doc["results"]["pair"] == pytest.approx(math.sqrt(3) - 1, abs=1e-9)
    assert doc["results"]["triple"] == pytest.approx(2 / 3, abs=1e-9)
    assert doc["results"]["anticorrelation"] == pytest.approx(0.63397, abs=5e-6)
    assert doc["results"]["verdict"] == "pairwise beyond triplewise"


def test_povm_axes_file(tmp_path, capsys):
    path = tmp_path / "axes.json"
    path.write_text(json.dumps([[0.0, 0.0, 1.0]]))
    code, out, _ = run_cli(capsys, "povm", "--axes", str(path), "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["threshold"] == pytest.approx(1.0)


@pytest.mark.parametrize("axes", [[[0, 0, 1], [0, 0, 1], [1, 0, 0]], [[0, 0, 1], [0, 0, -1], [1, 0, 0]]],
                         ids=["repeated", "opposite"])
def test_povm_repeated_or_opposite_axis_opens_no_gap(tmp_path, capsys, axes):
    # Measuring z and x jointly and reporting the z outcome twice, or once
    # flipped, measures all three spins at the pair threshold 1/sqrt(2).
    path = tmp_path / "axes.json"
    path.write_text(json.dumps(axes))
    code, out, err = run_cli(capsys, "povm", "--axes", str(path))
    assert (code, err) == (0, "")
    rows = dict(line.split(None, 1) for line in out.splitlines())
    assert rows["pair"] == rows["triple"] == "0.707106781187"
    assert rows["verdict"] == "no pairwise/triplewise gap"
    assert rows["eta_necessary"] == rows["eta_sufficient"] == "0.61803398875"


def _unit(v):
    norm = math.hypot(*v)
    return [x / norm for x in v] if norm > 1e-3 else [0.0, 0.0, 1.0]


@settings(max_examples=60, deadline=None)
@given(pair=st.lists(st.lists(st.floats(-1, 1), min_size=3, max_size=3), min_size=2, max_size=2),
       copied=st.integers(0, 1), sign=st.sampled_from([1, -1]), at=st.integers(0, 2))
def test_povm_two_axes_and_one_repeated_or_negated_report_no_gap(pair, copied, sign, at):
    axes = [_unit(v) for v in pair]
    axes.insert(at, [sign * x for x in axes[copied]])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "axes.json"
        path.write_text(json.dumps(axes))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["povm", "--axes", str(path), "--json"]) == cli.EXIT_OK
    results = json.loads(out.getvalue())["results"]
    assert results["verdict"] == "no pairwise/triplewise gap"
    assert results["triple"] >= results["pair"]


@pytest.mark.parametrize(
    "axes",
    [
        "nonexistent",
        [1, 2],
        [[0, 0, None], [1, 0, 0]],
        5,
        {"x": [0, 0, 1]},
        [],
        [[0, 0, 1], {"x": 1}],
        [[0, 0, 1, 0]],
        [[0, 0, 2]],
        [[10**400, 0, 0]],
        [[0, 0, "1"], [1, 0, 0]],
        [[0, 0, 1], [True, False, False]],
    ],
)
def test_povm_bad_axes(tmp_path, capsys, axes):
    # A string is passed as the --axes argument, anything else as a JSON file.
    spec = axes
    if not isinstance(axes, str):
        spec = tmp_path / "axes.json"
        spec.write_text(json.dumps(axes))
    code, out, err = run_cli(capsys, "povm", "--axes", str(spec))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    if isinstance(axes, str):
        assert "preset" in err


def test_network_undirected(tmp_path, capsys):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"nodes": 3, "edges": [[1, 2, "-"], [2, 3, "-"], [3, 1, "-"]]}))
    code, out, _ = run_cli(capsys, "network", "--file", str(path), "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["frustrated"] is True
    assert sorted(doc["results"]["witness_cycle"]) == [1, 2, 3]


def test_network_path_not_frustrated(tmp_path, capsys):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"nodes": 3, "edges": [[1, 2, "-"], [2, 3, "-"]]}))
    code, out, _ = run_cli(capsys, "network", "--file", str(path), "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["frustrated"] is False


@pytest.mark.parametrize("edges", [[], [[1, 2, "-"], [10**30, 2, "+"]]])
def test_network_memory_follows_the_edges_not_the_nodes(tmp_path, edges):
    # 10^30 nodes: a run that touched every node would exhaust the 256 MB of
    # address space the child gets, or its time, rather than answer.
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"nodes": 10**30, "edges": edges}))
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    limit = 256 << 20
    done = subprocess.run([sys.executable, "-m", "seer_lab.cli", "network", "--file", str(path), "--json"],
                          env=env, capture_output=True, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (done.returncode, done.stderr) == (0, b"")
    assert json.loads(done.stdout)["results"] == {"directed": False, "frustrated": False, "witness_cycle": []}


def test_network_directed_pentagon_trace(tmp_path, capsys):
    edges = [[1, 2, 1, "-"], [2, 3, 0, "-"], [3, 4, 1, "-"], [4, 5, 0, "-"], [5, 1, 1, "-"]]
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps({"nodes": 5, "edges": edges}))
    code, out, _ = run_cli(
        capsys, "network", "--file", str(path), "--directed",
        "--start", "1", "--value", "1", "--json",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["contradiction"] is True
    assert doc["results"]["trace"][-1] == "X_1=0 denies X_1=1"


def test_network_start_node_outside_the_graph_is_usage_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"nodes": 2, "edges": [[1, 2, 1, "+"]]}))
    code, out, err = run_cli(capsys, "network", "--file", str(path), "--directed",
                             "--start", "5", "--value", "1")
    assert (code, out) == (2, "")
    assert err == "error: start node 5 is outside the nodes 1..2\n"


def test_reader_closing_after_one_line_exits_zero_quietly(tmp_path):
    # 6,000 trace lines (about 330 kB) and 6,001 sweep rows (157 kB) outgrow a
    # 64 KiB pipe, so the writer is still writing when the reader closes; the
    # help text fits, and is flushed as the process ends (| head).
    n = 6000
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"nodes": n, "edges": [[i, i + 1, 1, "+"] for i in range(1, n)]}))
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, first in [
        (["network", "--file", str(path), "--directed", "--start", "1", "--value", "1"], b"contradiction"),
        (["sweep", "hardy_p", "--start", "1", "--stop", "1501", "--step", "0.25"], b"parameter,"),
        (["--help"], b"usage: seer-lab"),
    ]:
        with subprocess.Popen([sys.executable, "-m", "seer_lab.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(first)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert (code, err) == (0, b""), argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [["bounds", "pnc"], ["sweep", "hardy_p", "--start", "1", "--stop", "1501", "--step", "0.25"]])
def test_output_that_cannot_be_written_exits_2_with_one_error_line(argv):
    # Every write to /dev/full fails with ENOSPC: the short table on its
    # first write, the 157 kB sweep whichever write comes first.
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-m", "seer_lab.cli", *argv], env=env, stdout=full,
                              stderr=subprocess.PIPE, timeout=120)
    assert done.returncode == 2
    assert done.stderr.decode().splitlines() == ["error: cannot write the output: [Errno 28] No space left on device"]


def _module_env(unbuffered: bool) -> dict:
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return dict(env, PYTHONUNBUFFERED="1") if unbuffered else env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["bounds", "--help"]], ids=" ".join)
def test_help_and_version_that_cannot_be_written_exit_2_with_one_error_line(argv, unbuffered):
    # Unbuffered, argparse's own write fails; buffered, run's final flush does.
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-m", "seer_lab.cli", *argv], env=_module_env(unbuffered),
                              stdout=full, stderr=subprocess.PIPE, timeout=120)
    assert done.returncode == 2
    assert done.stderr.decode().splitlines() == ["error: cannot write the output: [Errno 28] No space left on device"]


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["bounds", "--help"], ["bounds", "pnc"]], ids=" ".join)
def test_reader_gone_before_the_first_write_exits_zero_quietly(argv, unbuffered):
    # The pipe's read end is closed before the process starts, so its first
    # write (or flush) fails with a broken pipe.
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "seer_lab.cli", *argv], env=_module_env(unbuffered),
                              stdout=write, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, b"")


def test_run_reports_a_failed_final_flush_with_exit_2(monkeypatch, capsys):
    # A file on a full disk takes argparse's --version text into its buffer
    # and fails only when run flushes it.
    class FullDisk(io.StringIO):
        def flush(self):
            raise OSError(28, "No space left on device")

    codes = []
    monkeypatch.setattr(sys, "argv", ["seer-lab", "--version"])
    monkeypatch.setattr(sys, "stdout", FullDisk())
    monkeypatch.setattr(os, "_exit", codes.append)
    monkeypatch.setattr(cli.gc, "disable", lambda: None)  # keep this process's collector on
    cli.run()
    assert codes == [2]
    assert capsys.readouterr().err == "error: cannot write the output: [Errno 28] No space left on device\n"


def test_network_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _ = run_cli(capsys, "network", "--file", str(path))
    assert code == 2


def test_sweep_klyachko_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "klyachko_R", "--start", "5", "--stop", "9", "--step", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "parameter,classical_bound,quantum_value"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["5", "7", "9"]
    for row in rows:
        n = int(row[0])
        c = math.cos(math.pi / n)
        assert float(row[1]) == pytest.approx(1 - 1 / n, abs=1e-9)
        assert float(row[2]) == pytest.approx(2 * c / (1 + c), abs=1e-9)


def test_sweep_hardy_peaks_near_optimum(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "hardy_p", "--start", "1.0", "--stop", "3.0", "--step", "0.05"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 41
    best = max(float(r[2]) for r in rows)
    assert best == pytest.approx(0.17455, abs=2e-4)
    assert all(float(r[1]) == 0.0 for r in rows)


def test_sweep_mermin(capsys):
    code, out, _ = run_cli(capsys, "sweep", "mermin_R", "--start", "3", "--stop", "15", "--step", "2")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert code == 0
    for row in rows:
        n = int(row[0])
        assert float(row[2]) == pytest.approx(
            1 / 3 + 2 / 3 * math.cos(math.pi / (2 * n)) ** 2, abs=1e-9
        )


def test_table_output_is_aligned_key_value(capsys):
    code, out, _ = run_cli(capsys, "bounds", "pnc")
    assert code == 0
    keys = [line.split()[0] for line in out.strip().splitlines()]
    assert "classical" in keys and "quantum" in keys


def test_timing_flag_adds_wall_time(capsys):
    _, out_plain, _ = run_cli(capsys, "bounds", "pnc", "--json")
    _, out_timed, _ = run_cli(capsys, "bounds", "pnc", "--json", "--timing")
    assert "wall_time_ms" not in out_plain
    doc = json.loads(out_timed)
    assert "wall_time_ms" in doc
    jsonschema.validate(doc, load_schema())


def test_twelve_significant_digit_formatting(capsys):
    _, out, _ = run_cli(capsys, "bounds", "bell_ring", "--n", "3", "--json")
    assert "0.833333333333" in out


def test_bounds_odd_cycle(capsys):
    code, out, _ = run_cli(capsys, "bounds", "odd_cycle", "--n", "5", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["classical"] == pytest.approx(9 / 10, abs=1e-9)
    assert doc["results"]["quantum"] == pytest.approx(math.cos(math.pi / 20) ** 2, abs=1e-9)
    assert doc["results"]["certificate"] == "n/a"


def test_certificate_failure_exits_3(capsys, monkeypatch):
    from seer_lab.quantum import CertificateError

    def broken(n):
        raise CertificateError("forced failure")

    monkeypatch.setattr(seer_lab.quantum, "sos_certificate_klyachko", broken)
    code, _, err = run_cli(capsys, "bounds", "ks_ncycle", "--n", "5")
    assert code == 3
    assert "verification failure" in err


def _break_certificate(monkeypatch, check):
    """Make one certificate check fail on its own."""
    if check == "residual":  # every sum of squares gains 1e-6 identity
        squares = quantum._fourier_squares
        monkeypatch.setattr(quantum, "_fourier_squares", lambda s, c: squares(s, c) + 1e-6 * np.eye(s.shape[-1]))
    elif check == "extremum":  # both extreme eigenvalues move up by 1e-6
        eig = numkit.eig_extrema
        monkeypatch.setattr(numkit, "eig_extrema", lambda m: numkit.EigExtrema(*(v + 1e-6 for v in eig(m))))
    elif check == "top":  # the ring's coefficients move up by 1e-6
        lams = quantum._ring_certificate_coefficients
        monkeypatch.setattr(quantum, "_ring_certificate_coefficients", lambda n: lams(n) + 1e-6)
    else:
        # One trine outcome projector gains 1e-8 sigma_y: the mixtures differ,
        # while every Born probability with a real projector stays the same.
        # The real trine projectors are cast to complex to hold the fault.
        projectors = quantum._outcome_projectors

        def uneven(ops):
            p = projectors(ops).astype(complex)
            p[0, 0] += 1e-8 * numkit.PAULI_Y
            return p

        monkeypatch.setattr(quantum, "_outcome_projectors", uneven)


@pytest.mark.parametrize(
    "argv, check, failed",
    [
        (["ks_ncycle", "--n", "5"], "residual", r"cycle certificate failed at n=5: residual=1\.732e-06, "),
        (["bell_ring", "--n", "3"], "residual", r"ring certificate failed at n=3: residual=2\.000e-06, "),
        (["ks_ncycle", "--n", "5"], "extremum", r"cycle certificate failed at n=5: .* extremum=(\S+) vs bound=(\S+)"),
        (["bell_ring", "--n", "3"], "extremum", r"ring certificate failed at n=3: .* extremum=(\S+) vs bound=(\S+)"),
        (["bell_ring", "--n", "3"], "top", r"ring certificate failed at n=3: top coefficient=(\S+) vs closed form=(\S+)"),
        (["pnc"], "defect", r"trit-obliviousness defect 5\.000e-09"),
    ],
    ids=["ks_ncycle-residual", "bell_ring-residual", "ks_ncycle-extremum", "bell_ring-extremum", "bell_ring-top",
         "pnc-defect"],
)
def test_forced_certificate_failure_exits_3(capsys, monkeypatch, argv, check, failed):
    _break_certificate(monkeypatch, check)
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert (code, out) == (3, "")
    shown = re.fullmatch("verification failure: " + failed + r"[^\n]*\n", err)
    assert shown, err
    if shown.groups():  # the shifted quantity against the one it must equal
        assert float(shown[1]) - float(shown[2]) == pytest.approx(1e-6, rel=1e-3)


@pytest.mark.parametrize("argv", [["bounds", "bell_ring", "--n", "3"],
                                  ["game", "bipartite_os", "--n", "3", "--strategy", "quantum"]])
def test_broken_born_table_exits_3(capsys, monkeypatch, argv):
    # Outcome 0 of the first setting gains 1e-8 sigma_z, which pushes one Born
    # probability of the package's own table below zero: a broken
    # construction, not bad input.
    projectors = quantum._outcome_projectors

    def broken(ops):
        p = projectors(ops)
        p[0, 0] += 1e-8 * numkit.PAULI_Z
        return p

    monkeypatch.setattr(quantum, "_outcome_projectors", broken)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    shown = re.fullmatch(r"verification failure: Born table: negative or non-finite probability (\S+) "
                         r"in context \(1, 4\)\n", err)
    assert shown, err
    assert float(shown[1]) == pytest.approx(-5e-9, rel=1e-6)


@pytest.mark.parametrize("argv", [["bounds", "ks_ncycle", "--n", "5"],
                                  ["game", "seer_ncycle", "--n", "5", "--strategy", "quantum"]])
def test_broken_cycle_born_table_exits_3(capsys, monkeypatch, argv):
    # The first ray's projector grows by 1e-6, so the cycle table's first
    # context no longer sums to 1.
    effects = quantum._ray_effects

    def broken(kets):
        e = effects(kets)
        e[0, 1] *= 1 + 1e-6
        return e

    monkeypatch.setattr(quantum, "_ray_effects", broken)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert re.fullmatch(r"verification failure: Born table: context \(1, 2\) is not normalized "
                        r"\(sum=1\.00000044\d*\)\n", err), err


# The residual and defect digits are rounding noise that varies with the BLAS
# build; every other byte of the `bounds` output is pinned.
CERTIFICATE_NOISE = re.compile(r"(ok \((?:residual|obliviousness defect)) \d\.\d{3}e[-+]\d{2}\)")


BOUNDS_OUTPUT = {
    "ks_ncycle --n 5":
        'certificate  ok (residual #)\nclassical    0.8\nfamily       ks_ncycle\nn            5\nquantum      0.894427191\nratio        1.11803398875\n',
    "ks_ncycle --n 5 --json":
        '{"command":["bounds","ks_ncycle","--n","5","--json"],"results":{"certificate":"ok (residual #)","classical":0.8,"family":"ks_ncycle","n":5,"quantum":0.894427191,"ratio":1.11803398875},"seed":null,"version":"0.1.0"}\n',
    "ks_ncycle --n 5 --csv":
        'key,value\ncertificate,ok (residual #)\nclassical,0.8\nfamily,ks_ncycle\nn,5\nquantum,0.894427191\nratio,1.11803398875\n',
    "bell_ring --n 3":
        'certificate  ok (residual #)\nclassical    0.777777777778\nfamily       bell_ring\nn            3\nquantum      0.833333333333\nratio        1.07142857143\n',
    "bell_ring --n 3 --json":
        '{"command":["bounds","bell_ring","--n","3","--json"],"results":{"certificate":"ok (residual #)","classical":0.777777777778,"family":"bell_ring","n":3,"quantum":0.833333333333,"ratio":1.07142857143},"seed":null,"version":"0.1.0"}\n',
    "bell_ring --n 3 --csv":
        'key,value\ncertificate,ok (residual #)\nclassical,0.777777777778\nfamily,bell_ring\nn,3\nquantum,0.833333333333\nratio,1.07142857143\n',
    "odd_cycle --n 5":
        'certificate  n/a\nclassical    0.9\nfamily       odd_cycle\nn            5\nquantum      0.975528258148\nratio        1.08392028683\n',
    "odd_cycle --n 5 --json":
        '{"command":["bounds","odd_cycle","--n","5","--json"],"results":{"certificate":"n/a","classical":0.9,"family":"odd_cycle","n":5,"quantum":0.975528258148,"ratio":1.08392028683},"seed":null,"version":"0.1.0"}\n',
    "odd_cycle --n 5 --csv":
        'key,value\ncertificate,n/a\nclassical,0.9\nfamily,odd_cycle\nn,5\nquantum,0.975528258148\nratio,1.08392028683\n',
    "pnc":
        'certificate  ok (obliviousness defect #)\nclassical    0.777777777778\nfamily       pnc\nn            3\nquantum      0.833333333333\nratio        1.07142857143\n',
    "pnc --json":
        '{"command":["bounds","pnc","--json"],"results":{"certificate":"ok (obliviousness defect #)","classical":0.777777777778,"family":"pnc","n":3,"quantum":0.833333333333,"ratio":1.07142857143},"seed":null,"version":"0.1.0"}\n',
    "pnc --csv":
        'key,value\ncertificate,ok (obliviousness defect #)\nclassical,0.777777777778\nfamily,pnc\nn,3\nquantum,0.833333333333\nratio,1.07142857143\n',
}


@pytest.mark.parametrize("argv", list(BOUNDS_OUTPUT))
def test_bounds_output_is_pinned(capsys, argv):
    code, out, err = run_cli(capsys, "bounds", *argv.split())
    assert (code, err) == (0, "")
    assert CERTIFICATE_NOISE.sub(r"\1 #)", out) == BOUNDS_OUTPUT[argv]


def test_csv_output_for_bounds(capsys):
    code, out, _ = run_cli(capsys, "bounds", "pnc", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("classical,") for line in lines)


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2


def _parse(parser, argv):
    """What a parser makes of argv: its namespace or exit code, and what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = vars(parser.parse_args(argv))
        except SystemExit as exc:
            parsed = exc.code
    return parsed, out.getvalue(), err.getvalue()


def test_build_parser_gives_arguments_to_one_or_every_subcommand():
    def with_arguments(parser):
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return [name for name, sub in subparsers.choices.items() if len(sub._actions) > 1]

    assert with_arguments(cli.build_parser()) == ["bounds", "povm", "network", "game", "sweep"]
    for name in cli._SUBCOMMANDS:
        assert with_arguments(cli.build_parser(name)) == [name]
    assert with_arguments(cli.build_parser("")) == []


@pytest.mark.parametrize("argv, dispatched", [
    ([], ""), (["--help"], ""), (["--version"], ""), (["nope"], "nope"), (["--n", "5", "bounds", "pnc"], "5"),
    (["-", "bounds"], "bounds"), (["-5", "bounds"], "bounds"), (["--", "bounds", "pnc"], "bounds"),
    (["", "game"], ""), (["bounds"], "bounds"), (["bounds", "nope"], "bounds"), (["bounds", "pnc", "--bogus"], "bounds"),
    (["bounds", "ks_ncycle", "--n", "x"], "bounds"), (["bounds", "-h", "povm"], "bounds"), (["-h", "game"], "game"),
    (["game", "odd_cycle", "--strategy", "nope"], "game"), (["network", "--file"], "network"),
    (["sweep", "hardy_p", "--step", "abc"], "sweep"), (["povm"], "povm"),
    *(([name, "-h"], name) for name in ("bounds", "povm", "network", "game", "sweep")),
    (["bounds", "pnc", "--json"], "bounds"), (["povm", "--axes", "trine3"], "povm"),
    (["game", "diachronic", "--trials", "10"], "game"), (["sweep", "mermin_R", "--stop", "5", "--csv"], "sweep"),
])
def test_main_parses_with_the_dispatched_subcommand_as_with_all(monkeypatch, argv, dispatched):
    # Every subcommand gets its name and help line; only the first token not
    # starting with "-" gets its arguments, and argv parses, prints and exits
    # as it does with every subcommand's arguments.
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda *args: built.append(args) or build(*args))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with contextlib.suppress(SystemExit):
            cli.main(argv)
    assert built == [(dispatched,)]
    assert _parse(build(dispatched), argv) == _parse(build(), argv)


def test_network_arity_mismatch_is_usage_error(tmp_path, capsys):
    directed_doc = {"nodes": 3, "edges": [[1, 2, 1, "-"]]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(directed_doc))
    code, _, err = run_cli(capsys, "network", "--file", str(path))
    assert code == 2
    assert "--directed" in err
    undirected_doc = {"nodes": 3, "edges": [[1, 2, "-"]]}
    path.write_text(json.dumps(undirected_doc))
    code, _, _ = run_cli(capsys, "network", "--file", str(path), "--directed",
                         "--start", "1", "--value", "1")
    assert code == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"nodes": 3, "edges": [5]},
        {"nodes": 3, "edges": 5},
        [[1, 2, "-"]],
        {"nodes": 3, "edges": [[[1], 2, "-"]]},
        {"nodes": None, "edges": [[1, 2, "-"]]},
        {"nodes": 3.5, "edges": [[1, 2, "-"]]},
        {"edges": [[1, 2, "-"]]},
        {"nodes": 3, "edges": [[1, "2", "-"]]},
        {"nodes": 3, "edges": [[1, 2, [0]]]},
    ],
)
def test_network_malformed_edges_is_usage_error(tmp_path, capsys, doc):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "network", "--file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "edge, message",
    [
        ([1, 2, [0], "-"], "arc base must be an integer"),
        ([1, 2, 0.5, "-"], "arc base must be an integer"),
        ([None, 2, 0, "-"], "arc endpoint must be an integer"),
        ([1, 2, 0, "x"], "arc style must be one of"),
        ([1, 2, 0, ["-"]], "arc style must be one of"),
    ],
)
def test_network_malformed_arcs_is_usage_error(tmp_path, capsys, edge, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"nodes": 3, "edges": [edge]}))
    code, out, err = run_cli(capsys, "network", "--file", str(path), "--directed",
                             "--start", "1", "--value", "1")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("quantity", ["hardy_p", "klyachko_R"])
@pytest.mark.parametrize("step", ["0", "-2"])
def test_sweep_nonpositive_step_is_usage_error(capsys, quantity, step):
    code, out, err = run_cli(capsys, "sweep", quantity, "--step", step)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["hardy_p", "--stop", "inf"],
        ["klyachko_R", "--stop", "inf"],
        ["hardy_p", "--step", "inf"],
        ["mermin_R", "--start", "nan"],
        ["klyachko_R", "--step", "2.5"],
        ["hardy_p", "--stop", "1e12"],
        ["hardy_p", "--start=-1e308", "--stop=1e308"],
        ["klyachko_R", "--stop", "1e300"],
        ["mermin_R", "--start", "5", "--stop", "1e300", "--step", "1e299"],
        ["hardy_p", "--start", "1e61", "--stop", "1e61"],
        ["klyachko_R", "--start", "5.5", "--stop", "9"],
        ["mermin_R", "--stop", "9.5"],
    ],
)
def test_sweep_out_of_range_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, etas",
    [
        (["--start", "1", "--stop", "1.15", "--step", "0.25"], ["1"]),
        (["--start", "1", "--stop", "0.9", "--step", "0.25"], []),
        (["--start", "1", "--stop", "1.4", "--step", "0.1"], ["1", "1.1", "1.2", "1.3", "1.4"]),
    ],
)
def test_sweep_hardy_rows_stop_at_stop(capsys, argv, etas):
    code, out, _ = run_cli(capsys, "sweep", "hardy_p", *argv)
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == etas


def test_sweep_caps_bound_rows_and_cycle_size(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 5)
    monkeypatch.setattr(cli, "MAX_SWEEP_N", 9)
    for stop in ("1.4", "1.45"):
        code, out, _ = run_cli(capsys, "sweep", "hardy_p", "--start", "1", "--stop", stop, "--step", "0.1")
        assert code == 0
        assert len(out.splitlines()) == 1 + 5
    code, _, err = run_cli(capsys, "sweep", "hardy_p", "--start", "1", "--stop", "1.5", "--step", "0.1")
    assert code == 2
    assert err == "error: hardy_p sweeps are limited to 5 rows\n"
    code, out, _ = run_cli(capsys, "sweep", "klyachko_R", "--stop", "10")
    assert code == 0
    assert out.splitlines()[-1].startswith("9,")
    code, _, err = run_cli(capsys, "sweep", "mermin_R", "--stop", "11")
    assert code == 2
    assert err == "error: cycle sweeps are limited to n <= 9\n"
    # Empty ranges are not refused, whatever their bounds.
    for quantity, start, stop in (("klyachko_R", "13", "11"), ("hardy_p", "1e300", "1")):
        code, out, _ = run_cli(capsys, "sweep", quantity, "--start", start, "--stop", stop)
        assert code == 0
        assert out == "parameter,classical_bound,quantum_value\n"


def test_povm_axis_cap(tmp_path, capsys):
    assert len(povm._as_axes([[0.0, 0.0, 1.0]] * povm.MAX_AXES)) == povm.MAX_AXES
    path = tmp_path / "axes.json"
    path.write_text(json.dumps([[0.0, 0.0, 1.0]] * (povm.MAX_AXES + 1)))
    code, out, err = run_cli(capsys, "povm", "--axes", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: at most {povm.MAX_AXES} axes are supported\n"


def test_povm_axes_json_coordinates_are_numbers(tmp_path, capsys):
    # Both entries convert to floats, yet neither is a JSON number.
    path = tmp_path / "axes.json"
    path.write_text(json.dumps([[0, 0, "1"], [True, False, False]]))
    code, out, err = run_cli(capsys, "povm", "--axes", str(path))
    assert (code, out) == (2, "")
    assert err == "error: axis coordinates must be JSON numbers, got '1'\n"


def test_povm_builds_the_full_family_once(tmp_path, capsys, monkeypatch):
    sizes = []
    build = povm.m_vectors

    def counted(axes):
        sizes.append(len(axes))
        return build(axes)

    monkeypatch.setattr(povm, "m_vectors", counted)
    angles = [math.pi * k / povm.MAX_AXES for k in range(povm.MAX_AXES)]
    path = tmp_path / "axes.json"
    path.write_text(json.dumps([[math.cos(t), math.sin(t), 0.0] for t in angles]))
    code, _, _ = run_cli(capsys, "povm", "--axes", str(path))
    assert code == 0
    assert sizes.count(povm.MAX_AXES) == 1
    assert set(sizes) == {2, povm.MAX_AXES}


@pytest.mark.parametrize("axes", ["orthogonal2", "trine3", "orthogonal3"])
def test_povm_builds_each_pair_povm_once(capsys, monkeypatch, axes):
    pairs = []
    build = povm.simulating_povm

    def counted(pair):
        pairs.append(len(povm._as_axes(pair)))
        return build(pair)

    monkeypatch.setattr(povm, "simulating_povm", counted)
    code, _, _ = run_cli(capsys, "povm", "--axes", axes)
    assert code == 0
    n_axes = len(povm.PRESET_AXES[axes])
    assert pairs == [n_axes] + [2] * math.comb(n_axes, 2)


def test_povm_two_axis_presets(capsys):
    code, out, _ = run_cli(capsys, "povm", "--axes", "trine2", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["pair"] == pytest.approx(math.sqrt(3) - 1, abs=1e-9)
    assert "triple" not in doc["results"]

    code, out, _ = run_cli(capsys, "povm", "--axes", "orthogonal2", "--json")
    doc = json.loads(out)
    assert doc["results"]["anticorrelation"] == pytest.approx(0.5, abs=1e-9)


def test_sweep_json_envelope_validates(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "klyachko_R", "--start", "5", "--stop", "7", "--step", "2", "--json"
    )
    doc = json.loads(out)
    assert code == 0
    jsonschema.validate(doc, load_schema())
    assert doc["results"]["columns"] == ["parameter", "classical_bound", "quantum_value"]


# --------------------------------------------------------------------------
# Exit-code contract under arbitrary JSON inputs

NETWORK_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {
        "nodes": JSON_VALUES,
        "edges": JSON_VALUES | st.lists(st.lists(JSON_VALUES, min_size=3, max_size=4), max_size=4),
    }
)
AXIS_ENTRIES = st.sampled_from([0, 1, -1, 0.0, 1.0, -1.0]) | JSON_SCALARS
AXES_DOCS = JSON_VALUES | st.lists(st.lists(AXIS_ENTRIES, min_size=2, max_size=4), max_size=4)
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_VERIFICATION}


def run_on_document(argv, doc) -> int:
    """Write ``doc`` to a JSON file and run the CLI with its path after ``argv``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main([*argv, str(path)])


@settings(max_examples=100, deadline=None)
@given(doc=NETWORK_DOCS, directed=st.booleans())
@example(doc={"nodes": 3, "edges": [[[1], 2, "-"]]}, directed=False)
@example(doc={"nodes": None, "edges": [[1, 2, "-"]]}, directed=False)
@example(doc={"nodes": 3, "edges": [[1, 2, [0], "-"]]}, directed=True)
def test_network_exit_codes_on_arbitrary_json(doc, directed):
    flags = ["--directed", "--start", "1", "--value", "1"] if directed else []
    assert run_on_document(["network", *flags, "--file"], doc) in EXIT_CODES


@settings(max_examples=100, deadline=None)
@given(doc=AXES_DOCS)
@example(doc=[1, 2])
@example(doc=[[0, 0, None], [1, 0, 0]])
@example(doc=5)
@example(doc=[[0, 0, 1.3407807929942597e154]])
def test_povm_exit_codes_on_arbitrary_json(doc):
    assert run_on_document(["povm", "--axes"], doc) in EXIT_CODES


@st.composite
def near_unit_axes(draw):
    """1-6 axes of length within 1e-12 of 1, each a fresh axis or a copy or
    negation of an earlier one."""
    axes = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["new", "repeat", "opposite"])) if axes else "new"
        if kind == "new":
            v = [draw(st.floats(-1, 1)) for _ in range(3)]
            norm = math.hypot(*v)
            v = [x / norm for x in v] if norm > 1e-3 else [0.0, 0.0, 1.0]
            length = draw(st.floats(1 - 1e-12, 1 + 1e-12))
            axes.append([x * length for x in v])
        else:
            axis = draw(st.sampled_from(axes))
            axes.append(axis if kind == "repeat" else [-x for x in axis])
    return axes


@settings(max_examples=60, deadline=None)
@given(axes=near_unit_axes())
@example(axes=[[0.0, 0.0, 1 - 5e-13]] * 2)
def test_povm_runs_on_every_accepted_axis_set(axes):
    try:
        povm._as_axes(axes)
    except ValueError:
        assume(False)
    assert run_on_document(["povm", "--axes"], axes) == cli.EXIT_OK


# --------------------------------------------------------------------------
# Exit-code contract under arbitrary argv

INTS = st.integers(-3, 61)
FLOATS = st.floats(-1e3, 1e3) | st.sampled_from([math.inf, -math.inf, math.nan, 1e12, 1e300])
OUTPUT_FLAGS = st.sampled_from([[], ["--json"], ["--csv"]])


def options(**values):
    """Each option absent or set to a drawn value, as ``--name=value``; a
    drawn ``True`` is a bare flag."""
    drawn = [
        st.none() | value.map(lambda v, name=name: f"--{name}" if v is True else f"--{name}={v}")
        for name, value in values.items()
    ]
    return st.tuples(*drawn).map(lambda opts: [o for o in opts if o is not None])


def command(*head, **values):
    return st.tuples(st.tuples(*head), options(**values), OUTPUT_FLAGS).map(
        lambda parts: [*parts[0], *parts[1], *parts[2]]
    )


ARGVS = st.one_of(
    command(st.just("bounds"), st.sampled_from(["ks_ncycle", "bell_ring", "odd_cycle", "pnc"]), n=INTS),
    command(st.just("povm"), st.just("--axes"), st.sampled_from([*povm.PRESET_AXES, "nonexistent"])),
    command(st.just("network"), st.just("--file"), st.sampled_from(["GRAPH", "ARCS"]),
            directed=st.just(True), start=INTS, value=INTS),
    command(st.just("game"), st.sampled_from(["bipartite_os", "odd_cycle", "seer_ncycle", "diachronic"]),
            n=INTS, strategy=st.sampled_from(["classical_best", "quantum", "foil"]),
            trials=st.integers(-2, 2**64), seed=st.integers(-(2**70), 2**70)),
    command(st.just("sweep"), st.sampled_from(["klyachko_R", "mermin_R", "hardy_p"]),
            start=FLOATS, stop=FLOATS, step=FLOATS),
)
GRAPHS = {
    "GRAPH": {"nodes": 3, "edges": [[1, 2, "-"], [2, 3, "-"], [3, 1, "-"]]},
    "ARCS": {"nodes": 3, "edges": [[1, 2, 1, "-"], [2, 3, 0, "-"], [3, 1, 1, "-"]]},
}


@settings(max_examples=150, deadline=None)
@given(argv=ARGVS)
@example(argv=["sweep", "hardy_p", "--stop=inf"])
@example(argv=["sweep", "klyachko_R", "--stop=inf"])
@example(argv=["sweep", "hardy_p", "--step=inf"])
@example(argv=["sweep", "hardy_p", "--stop=1e12"])
@example(argv=["sweep", "klyachko_R", "--step=2.5"])
@example(argv=["sweep", "hardy_p", "--start=-1e308", "--stop=1e308"])
@example(argv=["sweep", "hardy_p", "--start=1e300", "--stop=1e300"])
@example(argv=["sweep", "klyachko_R", "--start=5.5", "--stop=9"])
@example(argv=["game", "bipartite_os", f"--n={games.MAX_N + 2}", "--trials=10"])
@example(argv=["bounds", "bell_ring", f"--n={classical.MAX_N + 2}"])
@example(argv=["bounds", "ks_ncycle", "--n=27"])
@example(argv=["bounds", "ks_ncycle", f"--n={cli.MAX_SWEEP_N + 2}"])
@example(argv=["bounds", "ks_ncycle", f"--n={10**30 + 1}"])
def test_exit_codes_on_arbitrary_argv(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in GRAPHS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            argv = [str(path) if a == name else a for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
    assert code in EXIT_CODES
    assert "Traceback" not in err.getvalue()
