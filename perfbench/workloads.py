"""The benchmark's four workloads as seeded lists of checked operations.

An operation is one call into ``seer_lab`` (or one CLI process) plus a check
of its result against ``oracles``.  Only the call is timed; the check runs
after it.  Every input comes from the workload seed, so the same seed gives
the same operations.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles
from oracles import CheckFailed, close, expect
from seer_lab import classical, cli, games, povm, quantum, scenario


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


# --------------------------------------------------------------------------
# marginal-lp


def _lp_op(label: str, build: Callable[[], Any], check_table: Callable[[Any, Any], None]) -> Op:
    def call():
        table = build()
        return table, scenario.joint_distribution_feasible(table)

    return Op(label, call, lambda out: check_table(*out))


def _check_signed_cycle(signs):
    n = len(signs)
    edge_signs = {frozenset((a, a % n + 1)): s for a, s in zip(range(1, n + 1), signs)}
    what = f"cycle {''.join('+' if s == 1 else '-' for s in signs)}"

    def check(table, result):
        expect(result.feasible == oracles.cycle_feasible(signs), f"{what}: verdict {result.feasible}")
        if result.feasible:
            oracles.check_reproduces_marginals(table, result.distribution, what)
        elif isinstance(result.certificate, tuple) and result.certificate[0] == "odd-parity cycle":
            oracles.check_witness_cycle(result.certificate[1], edge_signs, what)

    return check


def _check_feasible(what: str):
    def check(table, result):
        expect(result.feasible, f"{what}: a deterministic table came out infeasible")
        oracles.check_reproduces_marginals(table, result.distribution, what)

    return check


def _check_infeasible(what: str):
    def check(table, result):
        expect(not result.feasible, f"{what}: a table beyond the classical bound came out feasible")

    return check


N9_PATTERNS = 128


def marginal_lp(seed: int) -> list[Op]:
    """The anti-correlation cycles n=15, 13, the two-wing ring tables n=7,5,3,
    seeded deterministic tables and sign patterns of the n-cycle for n=9..3
    (criterion-9 style).

    n=17 is left out: one solve takes 2.5 s, which leaves room for only two
    passes in a run, too few for a steady per-operation median."""
    rng = random.Random(seed)
    # Largest first: a run's last pass is cut short, so the operations at the
    # front get the most samples.
    ops = []
    for n in (15, 13):
        signs = (-1,) * n
        ops.append(_lp_op(f"lp.os_ncycle{n}", lambda n=n: scenario.build_os_ncycle(n),
                          _check_signed_cycle(signs)))
    for n in (7, 5, 3):
        # The ring correlations exceed the local bound 1 - 2/(3n), so no
        # joint distribution exists.
        ops.append(_lp_op(f"lp.mermin{n}", lambda n=n: quantum.mermin_table(n),
                          _check_infeasible(f"mermin_table n={n}")))
    # Eight tables at n=12, 11 with the ring tables and n=13, 15 make the
    # twelve slowest operations large LPs, so the tail latency reads large
    # LPs instead of the slowest of hundreds of near-identical small solves.
    for n in (12, 12, 12, 12, 11, 11, 11, 11):
        pairs = rng.sample(list(itertools.combinations(range(1, n + 1), 2)), n)
        triples = rng.sample(list(itertools.combinations(range(1, n + 1), 3)), n // 2)
        scen = scenario.Scenario(n, tuple(pairs + triples))
        bits = [rng.randrange(2) for _ in range(n)]
        ops.append(_lp_op(f"lp.deterministic{n}", lambda s=scen, b=bits: scenario.deterministic_table(s, b),
                          _check_feasible(f"deterministic n={n}")))
    # Every pattern for n <= 8; for n=9, 128 of the 512 drawn from the seed,
    # so that a pass fits about seven times into a run.
    patterns = rng.sample(list(itertools.product((1, -1), repeat=9)), N9_PATTERNS)
    for n in range(8, 2, -1):
        patterns += itertools.product((1, -1), repeat=n)
    for signs in patterns:
        ops.append(_lp_op(f"lp.cycle{len(signs)}", lambda s=signs: scenario.cycle_correlation_table(s),
                          _check_signed_cycle(signs)))
    return ops


# --------------------------------------------------------------------------
# exact-bounds


def exact_bounds(seed: int) -> list[Op]:
    """Every headline number twice: enumerated classical bounds as exact
    Fractions, Born-rule values against closed forms, certificate residuals,
    and the joint-measurability thresholds."""
    rng = np.random.default_rng(seed)
    ops = []

    def eq(actual, expected, what):
        expect(actual == expected, f"{what}: {actual!r} != {expected!r}")

    for n in range(5, 26, 2):
        ops.append(Op(f"classical.ks_bound_ncycle{n}", lambda n=n: classical.ks_bound_ncycle(n),
                      lambda r, n=n: eq(r.r_nc_exact, oracles.ks_bound(n), f"ks n={n}")))
    for game, bound in (("os_ring", oracles.os_ring_bound), ("odd_cycle", oracles.odd_cycle_bound)):
        for n in range(3, 14, 2):
            ops.append(Op(f"classical.local_bound.{game}{n}", lambda g=game, n=n: classical.local_bound(g, n),
                          lambda r, g=game, n=n, b=bound: eq(r.value_exact, b(n), f"{g} n={n}")))
    ops.append(Op("classical.pnc_bound_diachronic", lambda: classical.pnc_bound_diachronic(),
                  lambda r: eq(r.bound_exact, oracles.PNC_BOUND, "pnc")))
    ops.append(Op("classical.s3_local_bound", lambda: classical.s3_local_bound(),
                  lambda r: eq(r.value_exact, oracles.S3_BOUND, "s3")))

    # A family swept over n is one operation, as a `sweep` call is: the
    # slowest ten operations are then distinct large ones, and the tail
    # latency is not the noisiest member of a cluster of small certificates.
    def check_cert(r, extremum, what):
        expect(r.residual < 1e-9, f"{what}: residual {r.residual:.3e}")
        close(r.extremal_eigenvalue, extremum, 1e-9, f"{what} extremum")

    def check_klyachko(results):
        for n, (value, cert) in zip(range(5, 52, 2), results):
            close(value.r, oracles.klyachko_r(n), 1e-10, f"klyachko R n={n}")
            close(value.s, oracles.klyachko_s(n), 1e-10, f"klyachko S n={n}")
            check_cert(cert, oracles.klyachko_s(n), f"klyachko cert n={n}")

    def check_bell(results):
        for n, (value, cert) in zip(range(3, 52, 2), results):
            close(value, oracles.mermin(n), 1e-10, f"mermin n={n}")
            check_cert(cert, oracles.bell_ring_extremum(n), f"bell cert n={n}")

    def check_odd_cycle(results):
        for n, value in zip(range(3, 52, 2), results):
            close(value, oracles.odd_cycle_quantum(n), 1e-10, f"odd cycle n={n}")

    ops.append(Op("quantum.klyachko_value+sos_certificate_klyachko", lambda: [
        (quantum.klyachko_value(n), quantum.sos_certificate_klyachko(n)) for n in range(5, 52, 2)], check_klyachko))
    ops.append(Op("quantum.mermin_value+sos_certificate_bell", lambda: [
        (quantum.mermin_value(n), quantum.sos_certificate_bell(n)) for n in range(3, 52, 2)], check_bell))
    ops.append(Op("quantum.odd_cycle_game_value", lambda: [
        quantum.odd_cycle_game_value(n) for n in range(3, 52, 2)], check_odd_cycle))

    def check_hardy(r):
        eta, best = r
        expect(abs(best - oracles.HARDY_OPTIMUM) <= oracles.HARDY_OPTIMUM_TOL, f"hardy optimum {best}")
        close(best, oracles.hardy(eta), 1e-10, f"hardy value at eta={eta}")

    ops.append(Op("quantum.hardy_value", lambda: quantum.hardy_value(3 ** 0.5),
                  lambda r: close(r, 144 / (27 + 3 ** 0.5) ** 2, 1e-10, "hardy(sqrt3)")))
    ops.append(Op("quantum.hardy_optimize", lambda: quantum.hardy_optimize(), check_hardy))
    ops.append(Op("quantum.clifton_check", lambda: quantum.clifton_check(),
                  lambda r: eq(r.n_colorings_start_and_psi2, 0, "clifton colorings")))

    def check_simulating(joint, preset):
        expect(joint.completeness_defect() < 1e-10, f"{preset}: POVM incomplete")
        expect(joint.marginal_defect() < 1e-10, f"{preset}: POVM marginals off")

    for preset, threshold in oracles.POVM_THRESHOLDS.items():
        ops.append(Op(f"povm.eta_necessary.{preset}", lambda p=preset: povm.eta_necessary(p),
                      lambda r, p=preset, t=threshold: close(r, t, 1e-12, f"{p} eta_necessary")))
        ops.append(Op(f"povm.eta_sufficient.{preset}", lambda p=preset: povm.eta_sufficient(p),
                      lambda r, p=preset, t=threshold: close(r, t, 1e-12, f"{p} eta_sufficient")))
        ops.append(Op(f"povm.simulating_povm.{preset}", lambda p=preset: povm.simulating_povm(p),
                      lambda r, p=preset: check_simulating(r, p)))
    for kind, value in oracles.ANTICORRELATION.items():
        ops.append(Op(f"povm.anticorrelation_value.{kind}",
                      lambda k=kind: povm.anticorrelation_value(k, rng=rng),
                      lambda r, k=kind, v=value: close(r, v, 1e-10, f"{k} anti-correlation")))
    for preset in ("orthogonal2", "trine2"):
        eta = oracles.POVM_THRESHOLDS[preset]
        ops.append(Op(f"povm.nc_bound_noisy.{preset}", lambda e=eta: povm.nc_bound_noisy(e),
                      lambda r, e=eta, p=preset: close(r, 1 - e / 3, 1e-12, f"{p} nc bound")))
    return ops


# --------------------------------------------------------------------------
# monte-carlo

# 10^6 trials keep the sampler above 90 % of each call while a pass stays
# short enough for about ten passes in a run (see run.per_op).
MC_TRIALS = 1_000_000


def _game_specs(rng: random.Random, sizes: tuple[int, ...]):
    for kind in games.GAME_KINDS:
        for strategy in games.STRATEGIES:
            for n in ((3,) if kind == "diachronic" else sizes):
                yield kind, strategy, n, rng.randrange(1 << 62)


def monte_carlo(seed: int) -> list[Op]:
    """Every game kind x strategy at n=3,5,7 (the diachronic game is n=3
    only), MC_TRIALS trials each, with seeds drawn from the workload seed."""
    rng = random.Random(seed)
    ops = []
    for kind, strategy, n, game_seed in _game_specs(rng, (3, 5, 7)):
        spec = games.GameSpec(kind, strategy, trials=MC_TRIALS, seed=game_seed, n=n)
        ops.append(Op(f"games.simulate.{kind}.{strategy}{n}", lambda s=spec: games.simulate(s),
                      lambda r, k=kind, st=strategy, n=n: oracles.check_game(
                          k, st, n, MC_TRIALS, r.wins, r.empirical_rate, r.expected_rate)))
    return ops


# --------------------------------------------------------------------------
# cli-session

CLI_TRIALS = 100_000
FORMATS = ((), ("--json",), ("--csv",))
SCHEMA_PATH = Path(cli.__file__).with_name("schemas") / "report.schema.json"


@dataclass(frozen=True)
class CliOutput:
    returncode: int
    stdout: str
    stderr: str


def process_runner(root: Path, env: dict) -> Callable[[list[str]], CliOutput]:
    """Run ``python -m seer_lab.cli`` as its own process, as a user's script would."""

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "seer_lab.cli", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        return CliOutput(proc.returncode, proc.stdout, proc.stderr)

    return run


def inprocess_runner(argv) -> CliOutput:
    """Call ``cli.main`` in this process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliOutput(code, out.getvalue(), err.getvalue())


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _flatten(item, f"{prefix}{i}.")
    else:
        yield prefix[:-1], obj


def parse_output(text: str, fmt: tuple[str, ...], validator) -> tuple[dict, list]:
    """Read any of the three output formats into (flat key -> value, table rows)."""
    if fmt == ("--json",):
        envelope = json.loads(text)
        validator.validate(envelope)
        results = envelope["results"]
        if isinstance(results, dict) and "rows" in results:
            return {}, [[float(v) for v in row] for row in results["rows"]]
        return {k: str(v) for k, v in _flatten(results)}, []
    lines = text.splitlines()
    if fmt == ("--csv",) or (lines and lines[0].startswith("parameter,")):
        if lines[0] == "key,value":
            return dict(line.split(",", 1) for line in lines[1:]), []
        return {}, [[float(v) for v in line.split(",")] for line in lines[1:]]
    flat = {}
    for line in lines:
        key, _, value = line.partition(" ")
        flat[key] = value.strip()
    return flat, []


# Classical bound and quantum value of each `bounds` family, as functions of n.
BOUNDS_REFERENCE = {
    "ks_ncycle": (oracles.ks_bound, oracles.klyachko_r),
    "bell_ring": (oracles.os_ring_bound, oracles.mermin),
    "odd_cycle": (oracles.odd_cycle_bound, oracles.odd_cycle_quantum),
    "pnc": (lambda n: oracles.PNC_BOUND, lambda n: oracles.DIACHRONIC_QUANTUM),
}


def _check_bounds(family: str, n: int):
    classical_bound, quantum_value = BOUNDS_REFERENCE[family]
    lo, hi = float(classical_bound(n)), quantum_value(n)

    def check(flat, rows):
        expect(flat["family"] == family and int(flat["n"]) == n, f"bounds header {flat}")
        close(float(flat["classical"]), lo, 1e-10, f"bounds {family} classical")
        close(float(flat["quantum"]), hi, 1e-10, f"bounds {family} quantum")
        close(float(flat["ratio"]), hi / lo, 1e-10, f"bounds {family} ratio")
        expect(flat["certificate"].startswith("n/a" if family == "odd_cycle" else "ok"),
               f"bounds {family} certificate {flat['certificate']!r}")

    return check


def _check_povm(axes, label: str):
    def check(flat, rows):
        close(float(flat["eta_necessary"]), oracles.eta_necessary(axes), 1e-10, f"{label} eta_necessary")
        close(float(flat["eta_sufficient"]), oracles.eta_sufficient(axes), 1e-10, f"{label} eta_sufficient")
        if label in oracles.POVM_THRESHOLDS:
            close(float(flat["eta_sufficient"]), oracles.POVM_THRESHOLDS[label], 1e-10, f"{label} threshold")
        pairs = list(itertools.combinations(axes, 2))
        pair = min(oracles.eta_sufficient(p) for p in pairs)
        close(float(flat["pair"]), pair, 1e-10, f"{label} pair threshold")
        anti = sum(oracles.pair_anticorrelation(a, b) for a, b in pairs) / len(pairs)
        close(float(flat["anticorrelation"]), anti, 1e-10, f"{label} anti-correlation")
        close(float(flat["nc_bound"]), 1 - pair / 3, 1e-10, f"{label} nc bound")
        expect(flat["povm_checks"] == "ok", f"{label} POVM checks")
        if len(axes) >= 3:
            triple = oracles.eta_sufficient(axes)
            close(float(flat["triple"]), triple, 1e-10, f"{label} triple threshold")

    return check


def _check_network(frustrated: bool, edge_signs: dict):
    def check(flat, rows):
        expect(flat["frustrated"] == str(frustrated), f"network frustrated={flat['frustrated']}")
        witness = [flat[k] for k in sorted((k for k in flat if k.startswith("witness_cycle.")),
                                           key=lambda k: int(k.split(".")[1]))]
        if frustrated:
            oracles.check_witness_cycle(witness, edge_signs, "network")
        else:
            expect(not witness, f"unfrustrated network has witness {witness}")

    return check


def _check_chain(contradiction: bool):
    def check(flat, rows):
        expect(flat["contradiction"] == str(contradiction), f"chain contradiction={flat['contradiction']}")

    return check


def _check_game(kind: str, strategy: str, n: int, game_seed: int):
    def check(flat, rows):
        expect((flat["kind"], flat["strategy"], int(flat["seed"])) == (kind, strategy, game_seed),
               f"game header {flat}")
        expect(int(flat["trials"]) == CLI_TRIALS, f"game trials {flat['trials']}")
        oracles.check_game(kind, strategy, n, CLI_TRIALS, int(flat["wins"]),
                           float(flat["empirical_rate"]), float(flat["expected_rate"]))

    return check


def _check_sweep(params, classical_bound, quantum_value, what: str):
    def check(flat, rows):
        expect(len(rows) == len(params), f"{what}: {len(rows)} rows, expected {len(params)}")
        for (x, lo, hi), p in zip(rows, params):
            close(x, p, 1e-10, f"{what} parameter")
            close(lo, classical_bound(p), 1e-10, f"{what} classical at {p}")
            close(hi, quantum_value(p), 1e-10, f"{what} quantum at {p}")

    return check


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def cli_session(seed: int, inputs: Path, run: Callable[[list[str]], CliOutput],
                seen: dict[tuple[str, ...], str]) -> list[Op]:
    """One scripted reproduction: every subcommand at small sizes, output
    formats rotating between default, --json and --csv, and one argv repeated
    at the end of the session.  ``seen`` keeps the first output of each argv;
    every later call with the same argv must print the same bytes."""
    from jsonschema import Draft202012Validator

    validator = Draft202012Validator(json.loads(SCHEMA_PATH.read_text(encoding="utf-8")))
    rng = random.Random(seed)
    inputs.mkdir(parents=True, exist_ok=True)
    jobs = []  # (argv, check)

    for family, n in (("ks_ncycle", 5), ("ks_ncycle", 11), ("bell_ring", 11), ("odd_cycle", 11), ("pnc", 3)):
        argv = ["bounds", family] + ([] if family == "pnc" else ["--n", str(n)])
        jobs.append((argv, _check_bounds(family, n)))

    for preset in oracles.POVM_THRESHOLDS:
        jobs.append((["povm", "--axes", preset], _check_povm(povm.PRESET_AXES[preset], preset)))
    axes = []
    for _ in range(3):
        v = [rng.gauss(0, 1) for _ in range(3)]
        norm = sum(x * x for x in v) ** 0.5
        axes.append([x / norm for x in v])
    axes_file = _write_json(inputs / f"axes-{seed}.json", axes)
    jobs.append((["povm", "--axes", axes_file], _check_povm(axes, "seeded axes")))

    for frustrated in (True, False):
        nodes = rng.sample(range(1, 13), 12)
        signs = [rng.choice((1, -1)) for _ in range(11)]
        signs.append((-1 if frustrated else 1) * (-1 if signs.count(-1) % 2 else 1))
        edges = [[nodes[i], nodes[(i + 1) % 12], "+" if s == 1 else "-"] for i, s in enumerate(signs)]
        edge_signs = {frozenset(e[:2]): (1 if e[2] == "+" else -1) for e in edges}
        path = _write_json(inputs / f"cycle-{seed}-{int(frustrated)}.json", {"nodes": 12, "edges": edges})
        jobs.append((["network", "--file", path], _check_network(frustrated, edge_signs)))
    styles = [rng.choice("+-") for _ in range(9)]
    base = start = rng.randrange(2)
    arcs = []
    for a, style in enumerate(styles, start=1):
        arcs.append([a, a % 9 + 1, base, style])
        base = base if style == "+" else 1 - base
    path = _write_json(inputs / f"chain-{seed}.json", {"nodes": 9, "edges": arcs})
    jobs.append((["network", "--file", path, "--directed", "--start", "1", "--value", str(start)],
                 _check_chain(styles.count("-") % 2 == 1)))

    for kind, strategy, n, game_seed in _game_specs(rng, (5,)):
        argv = ["game", kind, "--strategy", strategy, "--trials", str(CLI_TRIALS), "--seed", str(game_seed)]
        if kind != "diachronic":
            argv += ["--n", str(n)]
        jobs.append((argv, _check_game(kind, strategy, n, game_seed)))

    jobs.append((["sweep", "klyachko_R"], _check_sweep(
        range(5, 22, 2), lambda n: float(oracles.ks_bound(n)), oracles.klyachko_r, "klyachko_R")))
    jobs.append((["sweep", "mermin_R"], _check_sweep(
        range(3, 22, 2), lambda n: float(oracles.os_ring_bound(n)), oracles.mermin, "mermin_R")))
    etas = [1 + 0.25 * i for i in range(9)]
    jobs.append((["sweep", "hardy_p", "--start", "1", "--stop", "3", "--step", "0.25"], _check_sweep(
        etas, lambda eta: 0.0, oracles.hardy, "hardy_p")))

    ops = []
    for i, (argv, check) in enumerate(jobs):
        ops.append(_cli_op(argv + list(FORMATS[i % 3]), FORMATS[i % 3], check, run, validator, seen))
    # Identical arguments must give byte-identical output; this argv repeats
    # within every session.
    repeat = next(op for op in ops if op.label.startswith("cli.game bipartite_os --strategy quantum"))
    ops.append(Op(repeat.label, repeat.call, repeat.check))
    return ops


def _cli_op(argv, fmt, check, run, validator, seen) -> Op:
    def check_output(out: CliOutput):
        expect(out.returncode == 0, f"exit code {out.returncode}: {out.stderr.strip()[-300:]}")
        expect("Traceback" not in out.stderr, f"traceback on stderr: {out.stderr[-300:]}")
        first = seen.setdefault(tuple(argv), out.stdout)
        expect(out.stdout == first, "output differs from an earlier call with identical arguments")
        try:
            flat, rows = parse_output(out.stdout, fmt, validator)
            check(flat, rows)
        except (KeyError, ValueError, IndexError) as exc:
            raise CheckFailed(f"unreadable output ({exc!r}): {out.stdout[:200]!r}") from exc

    return Op("cli." + " ".join(argv), lambda: run(argv), check_output)


IN_PROCESS = {"marginal-lp": marginal_lp, "exact-bounds": exact_bounds, "monte-carlo": monte_carlo}
