"""Importing the package, running the CLI, deciding a table of perfectly
(anti)correlated pairs, one whose contexts disagree and one whose zeros admit
no atom must not load scipy; the first marginal-problem solve loads it, through the module
attribute ``scenario.nnls``.  The package loads its submodules on first
access, and each CLI subcommand loads only the modules it runs: ``signet``
only for ``network``, as a table imports it only to decide or build a signed
graph.  The process
entry ``cli.run`` prints and exits as ``cli.main`` does, with the collector
off; ``cli.main`` leaves the collector alone."""

import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seer_lab
from seer_lab import cli, games, quantum, tolerances

SRC = str(Path(seer_lab.__file__).resolve().parent.parent)

CLI_RUNS = """
import contextlib, io, json, os, sys, tempfile
from seer_lab import cli
with tempfile.TemporaryDirectory() as tmp:
    graph = os.path.join(tmp, "triangle.json")
    with open(graph, "w") as fh:
        json.dump({"nodes": 3, "edges": [[1, 2, "-"], [2, 3, "-"], [3, 1, "-"]]}, fh)
    runs = [
        ["bounds", "ks_ncycle", "--n", "5"],
        ["povm", "--axes", "trine3"],
        ["network", "--file", graph],
        ["game", "bipartite_os", "--n", "3", "--trials", "1000"],
        ["sweep", "klyachko_R"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in runs]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

FIRST_LP = """
import json, sys
from seer_lab import quantum, scenario
loaded_at_import = "scipy" in sys.modules
shapes = []
solve = scenario.nnls

def traced(a, b):
    shapes.append(list(a.shape))
    return solve(a, b)

scenario.nnls = traced
result = scenario.joint_distribution_feasible(quantum.mermin_table(3))
print(json.dumps({
    "loaded_at_import": loaded_at_import,
    "feasible": result.feasible,
    "certificate": result.certificate[0],
    "shapes": shapes,
}))
"""

SIGNED_TABLES = """
import json, sys
from seer_lab import scenario
# The third is a balanced path whose two rows give measurement 2 the
# marginals 0.7 and 0.4: inconsistent, so decided before any solve.
path = scenario.Scenario(3, ((1, 2), (2, 3)))
tables = [
    scenario.build_os_ncycle(3),
    scenario.cycle_correlation_table([1, 1, 1]),
    scenario.CorrelationTable(path, {(1, 2): {(0, 0): 0.7, (1, 1): 0.3}, (2, 3): {(0, 0): 0.4, (1, 1): 0.6}}),
]
verdicts = [scenario.joint_distribution_feasible(t).feasible for t in tables]
print(json.dumps({"verdicts": verdicts, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

NO_ATOM = """
import json, sys
from seer_lab import scenario
# Measurement 2 is 0 in the first context and 1 in the second, so every atom
# meets a zero entry.
table = scenario.CorrelationTable(
    scenario.Scenario(3, ((1, 2), (2, 3))), {(1, 2): {(0, 0): 1.0}, (2, 3): {(1, 0): 1.0}}
)
result = scenario.joint_distribution_feasible(table)
print(json.dumps({
    "feasible": result.feasible,
    "certificate": result.certificate,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


LOADED = """
import contextlib, io, json, sys
from seer_lab import cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "seer_lab"))

codes, modules = [], [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
        modules.append(loaded())
print(json.dumps({"codes": codes, "modules": modules}))
"""

RUN_ENTRY = """
import contextlib, gc, io, json, sys
from seer_lab import cli
sys.argv = ["seer-lab", "bounds", "ks_ncycle", "--n", "5"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.run()
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}))
"""

IMPORT_ALL = """
import json, sys
import seer_lab
at_import = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "seer_lab"))
lazy = [name for name in seer_lab.__all__ if name not in vars(seer_lab)]
loaded = {name: type(getattr(seer_lab, name)).__name__ for name in seer_lab.__all__}
namespace = {}
exec("from seer_lab import *", namespace)
star = sorted(k for k in namespace if k != "__builtins__")
print(json.dumps({"at_import": at_import, "lazy": lazy, "loaded": loaded, "star": star}))
"""


FRESH_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_fresh(code: str, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=FRESH_ENV, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(proc.stdout)


def test_cli_subcommands_run_without_scipy():
    report = run_fresh(CLI_RUNS)
    assert report["codes"] == [0, 0, 0, 0, 0]
    assert report["scipy"] == []


def test_first_lp_loads_scipy_through_module_attribute():
    report = run_fresh(FIRST_LP)
    assert report["loaded_at_import"] is False
    assert report["feasible"] is False
    assert report["certificate"] == "farkas"
    # The replaced attribute saw the one solve: 6 measurements, 9 contexts and
    # the normalisation give 16 rows, and the perfect correlations of equal
    # settings leave 2^3 atoms.
    assert report["shapes"] == [[16, 8]]


def test_signed_pair_tables_are_decided_without_scipy():
    report = run_fresh(SIGNED_TABLES)
    assert report["verdicts"] == [False, True, False]
    assert report["scipy"] == []


def test_table_whose_zeros_admit_no_atom_is_decided_without_scipy():
    report = run_fresh(NO_ATOM)
    assert report == {"feasible": False, "certificate": None, "scipy": []}


def loaded_after_each(*argvs: list[str]) -> list[set[str]]:
    """Modules of numpy and seer_lab that one fresh process has loaded after
    importing the CLI and after running each of ``argvs`` in turn."""
    report = run_fresh(LOADED, json.dumps(list(argvs)))
    assert report["codes"] == [0] * len(argvs)
    return [set(modules) for modules in report["modules"]]


def loaded_by(*argvs: list[str]) -> set[str]:
    """Modules of numpy and seer_lab that one fresh process loads to run ``argvs``."""
    return loaded_after_each(*argvs)[-1]


def test_importing_the_cli_loads_no_numpy_and_no_other_seer_lab_module():
    assert loaded_by() == {"seer_lab", "seer_lab.cli", "seer_lab.tolerances"}


def test_network_runs_without_numpy(tmp_path):
    undirected, directed = tmp_path / "triangle.json", tmp_path / "pentagon.json"
    undirected.write_text(json.dumps({"nodes": 3, "edges": [[1, 2, "-"], [2, 3, "-"], [3, 1, "-"]]}))
    edges = [[1, 2, 1, "-"], [2, 3, 0, "-"], [3, 4, 1, "-"], [4, 5, 0, "-"], [5, 1, 1, "-"]]
    directed.write_text(json.dumps({"nodes": 5, "edges": edges}))
    loaded = loaded_by(
        ["network", "--file", str(undirected)],
        ["network", "--file", str(directed), "--directed", "--start", "1", "--value", "1"],
    )
    assert loaded == {"seer_lab", "seer_lab.cli", "seer_lab.signet", "seer_lab.tolerances"}


def test_povm_loads_no_bound_table_or_game_module():
    loaded = loaded_by(["povm", "--axes", "trine3"], ["povm", "--axes", "orthogonal2"])
    assert "seer_lab.povm" in loaded
    assert not loaded & {f"seer_lab.{name}" for name in ("classical", "quantum", "scenario", "signet", "games")}


def test_povm_loads_no_numpy_random(tmp_path):
    # 14 distinct unit axes: azimuth k, polar angle 1 + k.
    axes = [[math.cos(k) * math.sin(1 + k), math.sin(k) * math.sin(1 + k), math.cos(1 + k)]
            for k in range(14)]
    path = tmp_path / "axes14.json"
    path.write_text(json.dumps(axes))
    loaded = loaded_by(["povm", "--axes", "trine3"], ["povm", "--axes", str(path)])
    assert "seer_lab.povm" in loaded
    assert not {m for m in loaded if m.split(".")[:2] == ["numpy", "random"]}


@pytest.mark.parametrize("argvs", [
    [["bounds", "ks_ncycle", "--n", "5"], ["bounds", "bell_ring", "--n", "3"],
     ["bounds", "odd_cycle", "--n", "3"], ["bounds", "pnc"]],
    [["sweep", "klyachko_R", "--stop", "7"], ["sweep", "mermin_R", "--stop", "5"], ["sweep", "hardy_p"]],
])
def test_bounds_and_sweep_load_no_games_or_povm(argvs):
    loaded = loaded_by(*argvs)
    assert "seer_lab.quantum" in loaded
    assert not loaded & {"seer_lab.games", "seer_lab.povm"}


_TABLE_MODULES = {"seer_lab", "seer_lab.cli", "seer_lab.tolerances", "seer_lab.classical", "seer_lab.numkit",
                  "seer_lab.quantum", "seer_lab.scenario"}


@pytest.mark.parametrize("argvs, expected", [
    ([["bounds", "ks_ncycle", "--n", "5"], ["bounds", "bell_ring", "--n", "3"], ["bounds", "odd_cycle", "--n", "3"],
      ["bounds", "pnc"]], _TABLE_MODULES),
    ([["sweep", quantity, "--stop", "5"] for quantity in ("klyachko_R", "mermin_R")] + [["sweep", "hardy_p"]],
     _TABLE_MODULES),
    ([["game", kind, "--n", "3", "--strategy", strategy, "--trials", "10"]
      for kind in games.GAME_KINDS for strategy in games.STRATEGIES], _TABLE_MODULES | {"seer_lab.games"}),
], ids=["bounds", "sweep", "game"])
def test_bounds_sweep_and_game_load_no_signet(argvs, expected):
    assert {m for m in loaded_by(*argvs) if m.split(".")[0] == "seer_lab"} == expected


def test_game_loads_no_povm():
    loaded = loaded_by(*[["game", kind, "--n", "3", "--strategy", strategy, "--trials", "10"]
                         for kind in games.GAME_KINDS for strategy in games.STRATEGIES])
    assert "seer_lab.games" in loaded
    assert "seer_lab.povm" not in loaded


@pytest.mark.parametrize("kind", games.GAME_KINDS)
def test_game_loads_quantum_and_numkit_only_for_the_quantum_strategy(kind):
    classical_best, foil, quantum_run = loaded_after_each(
        *[["game", kind, "--n", "3", "--strategy", strategy, "--trials", "10"]
          for strategy in ("classical_best", "foil", "quantum")]
    )[1:]
    assert "seer_lab.games" in classical_best
    assert not foil & {"seer_lab.quantum", "seer_lab.numkit"}
    assert {"seer_lab.quantum", "seer_lab.numkit"} <= quantum_run


def test_main_leaves_the_collector_alone_and_run_turns_it_off(capsys):
    assert cli.main(["bounds", "ks_ncycle", "--n", "5"]) == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0
    # The process entry runs the same command with the collector off and
    # freezes what is left before exiting with main's code.
    report = run_fresh(RUN_ENTRY)
    assert report["code"] == 0
    assert report["enabled"] is False
    assert report["frozen"] > 0


def test_module_entry_prints_and_exits_as_main(tmp_path, capsys):
    graph = tmp_path / "triangle.json"
    graph.write_text(json.dumps({"nodes": 3, "edges": [[1, 2, "-"], [2, 3, "-"], [3, 1, "-"]]}))
    argvs = [
        ["bounds", "ks_ncycle", "--n", "5"],
        ["povm", "--axes", "trine3", "--json"],
        ["network", "--file", str(graph), "--csv"],
        ["game", "diachronic", "--trials", "1000", "--seed", "7"],
        ["sweep", "mermin_R", "--stop", "9"],
        ["--version"],
        ["bounds", "ks_ncycle", "--n", "4"],  # a bad value: exit 2
        ["game", "no_such_kind"],  # an argparse usage error: exit 2
    ]
    codes = []
    for argv in argvs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's exits: --version and usage errors
            code = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "seer_lab.cli", *argv], env=FRESH_ENV,
                              capture_output=True, text=True, timeout=120)
        assert (proc.stdout, proc.stderr, proc.returncode) == (out, err, code), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 0, 0, 2, 2]


def test_package_loads_each_name_in_all_on_first_access():
    report = run_fresh(IMPORT_ALL)
    assert report["at_import"] == ["seer_lab", "seer_lab.tolerances"]
    assert report["lazy"] == ["classical", "games", "numkit", "povm", "quantum", "scenario", "signet"]
    assert report["loaded"] == {name: type(getattr(seer_lab, name)).__name__ for name in seer_lab.__all__}
    assert report["star"] == sorted(seer_lab.__all__)


def test_cli_game_choices_are_the_games_tuples():
    assert cli.GAME_KINDS == games.GAME_KINDS
    assert cli.STRATEGIES == games.STRATEGIES


def test_quantum_raises_the_tolerances_certificate_error():
    assert quantum.CertificateError is tolerances.CertificateError
