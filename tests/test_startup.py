"""Importing the package, running the CLI, deciding a table of perfectly
(anti)correlated pairs and deciding a table whose zeros admit no atom must not
load scipy; the first marginal-problem LP loads it, through the module
attribute ``scenario.linprog``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import seer_lab

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
statuses = []
solve = scenario.linprog

def traced(*args, **kwargs):
    res = solve(*args, **kwargs)
    statuses.append(int(res.status))
    return res

scenario.linprog = traced
result = scenario.joint_distribution_feasible(quantum.mermin_table(3))
print(json.dumps({
    "loaded_at_import": loaded_at_import,
    "feasible": result.feasible,
    "certificate": result.certificate,
    "statuses": statuses,
}))
"""

SIGNED_TABLES = """
import json, sys
from seer_lab import scenario
tables = [scenario.build_os_ncycle(3), scenario.cycle_correlation_table([1, 1, 1])]
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


def run_fresh(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
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
    assert report["certificate"] is None
    # The replaced attribute saw the solve: HiGHS status 2, infeasible.
    assert report["statuses"] == [2]


def test_signed_pair_tables_are_decided_without_scipy():
    report = run_fresh(SIGNED_TABLES)
    assert report["verdicts"] == [False, True]
    assert report["scipy"] == []


def test_table_whose_zeros_admit_no_atom_is_decided_without_scipy():
    report = run_fresh(NO_ATOM)
    assert report == {"feasible": False, "certificate": None, "scipy": []}
