"""Batch command-line front end.

Subcommands: ``bounds`` (classical bound vs quantum value plus certificate
status), ``povm`` (joint-measurability thresholds for spin axes), ``network``
(frustration / implication-chain checks on graph JSON), ``game`` (seeded
Monte Carlo), and ``sweep`` (CSV data series).  Output is a human-readable
table by default, or a JSON envelope / CSV with ``--json`` / ``--csv``.
Numbers are printed with 12 significant digits and outputs are byte-identical
for identical arguments; wall time is only included with ``--timing``.

Each subcommand imports the modules it runs when it is called, so a process
loads only what its subcommand needs: ``network`` runs without numpy, and
``povm`` loads none of the bound, table or game modules.

``run`` is the process entry of the ``seer-lab`` console script
(``seer_lab.cli:run``) and of ``python -m seer_lab.cli``: it runs ``main`` once
with the cyclic garbage collector off and freezes what is left, so the process
ends without the collector's passes.  ``main`` leaves the collector alone for
callers that run it in their own process.

Exit codes: 0 success, 2 usage or input error, 3 certificate or invariant
failure.  A reader that closes the output early (``| head``) ends the run
quietly with 0.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import sys
import time
from typing import Optional, Sequence

from . import __version__
from .tolerances import STRUCT_TOL, CertificateError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3

# Largest sweeps, set from a 5 s budget (whole processes, median of seven,
# 2-core host): a hardy_p row takes 0.3 ms (10,000 rows 3.0 s); a cycle row
# costs O(n), and mermin_R over odd n = 3..201 takes 0.78 s (klyachko_R over
# n = 5..201, 0.66 s).  MAX_SWEEP_N also caps `bounds ks_ncycle`, which takes
# 0.38 s at n = 201 (certificate residual 3.0e-13).
MAX_SWEEP_ROWS = 10_000
MAX_SWEEP_N = 201

# The `game` choices, in the order of games.GAME_KINDS and games.STRATEGIES
# (a test keeps them equal), stated here so that parsing argv imports no games.
GAME_KINDS = ("seer_ncycle", "bipartite_os", "odd_cycle", "diachronic")
STRATEGIES = ("classical_best", "quantum", "foil")


def _quantize(obj):
    """Round floats to 12 significant digits for stable, diff-friendly output."""
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return None
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v) for v in obj]
    return obj


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            rows.extend(_flatten(obj[key], f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            rows.extend(_flatten(item, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], obj))
    return rows


def _emit(args, results, command: list[str], seed: Optional[int], started: float) -> None:
    if getattr(args, "json", False):
        envelope = {
            "command": command,
            "version": __version__,
            "seed": seed,
            "results": _quantize(results),
        }
        if getattr(args, "timing", False):
            envelope["wall_time_ms"] = _quantize((time.perf_counter() - started) * 1e3)
        sys.stdout.write(json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n")
        return
    csv = getattr(args, "csv", False)
    if isinstance(results, dict) and "columns" in results and "rows" in results:
        sep = "," if csv else "  "
        sys.stdout.write(sep.join(results["columns"]) + "\n")
        for row in results["rows"]:
            sys.stdout.write(sep.join(_fmt(v) for v in row) + "\n")
    elif csv:
        sys.stdout.write("key,value\n")
        for key, value in _flatten(results):
            sys.stdout.write(f"{key},{_fmt(value)}\n")
    else:
        rows = _flatten(results)
        width = max((len(k) for k, _ in rows), default=0)
        for key, value in rows:
            sys.stdout.write(f"{key.ljust(width)}  {_fmt(value)}\n")
    if getattr(args, "timing", False) and not csv:
        sys.stdout.write(f"wall_time_ms  {_fmt((time.perf_counter() - started) * 1e3)}\n")


# --------------------------------------------------------------------------
# Subcommands


def _require_odd(n: Optional[int], minimum: int, maximum: int, what: str) -> int:
    if n is None:
        raise ValueError(f"--n is required for {what}")
    if n < minimum or n % 2 == 0:
        raise ValueError(f"{what} needs odd n >= {minimum}")
    if n > maximum:
        raise ValueError(f"{what} is limited to n <= {maximum}")
    return n


def cmd_bounds(args) -> dict:
    from . import classical, quantum

    family = args.family
    if family == "ks_ncycle":
        n = _require_odd(args.n, 5, MAX_SWEEP_N, "ks_ncycle")
        classical_bound = classical.ks_bound_ncycle(n).r_nc
        quantum_value = quantum.klyachko_value(n).r
        cert = quantum.sos_certificate_klyachko(n)
        certificate = f"ok (residual {cert.residual:.3e})"
    elif family == "bell_ring":
        n = _require_odd(args.n, 3, classical.MAX_N, "bell_ring")
        classical_bound = classical.local_bound("os_ring", n).value
        quantum_value = quantum.mermin_value(n)
        cert = quantum.sos_certificate_bell(n)
        certificate = f"ok (residual {cert.residual:.3e})"
    elif family == "odd_cycle":
        n = _require_odd(args.n, 3, classical.MAX_N, "odd_cycle")
        classical_bound = classical.local_bound("odd_cycle", n).value
        quantum_value = quantum.odd_cycle_game_value(n)
        certificate = "n/a"
    elif family == "pnc":
        if args.n not in (None, 3):
            raise ValueError("the pnc game is defined for n=3 only")
        n = 3
        classical_bound = classical.pnc_bound_diachronic().bound
        result = quantum.diachronic_quantum()
        quantum_value = result.r
        certificate = f"ok (obliviousness defect {result.obliviousness_defect:.3e})"
    else:
        raise ValueError(f"unknown bounds family {args.family!r}")
    return {
        "family": family,
        "n": n,
        "classical": classical_bound,
        "quantum": quantum_value,
        "ratio": quantum_value / classical_bound,
        "certificate": certificate,
    }


def _load_axes(spec: str):
    from . import povm

    if spec in povm.PRESET_AXES:
        return spec
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError("the axes JSON must be a list of 3-vectors")
        axes = povm._as_axes(data)  # shape, finiteness and unit length are reported first
        bad = [x for axis in data for x in axis if type(x) not in (int, float)]
        if bad:
            raise ValueError(f"axis coordinates must be JSON numbers, got {bad[0]!r}")
        return axes
    raise ValueError(f"--axes must be a preset {sorted(povm.PRESET_AXES)} or a JSON file")


def cmd_povm(args) -> dict:
    from . import povm

    joint = povm.simulating_povm(_load_axes(args.axes))  # raises on completeness/marginal failure
    axes, necessary, sufficient = joint.axes, joint.eta_necessary, joint.eta
    results: dict = {
        "axes": args.axes,
        "n_axes": len(axes),
        "eta_necessary": necessary,
        "eta_sufficient": sufficient,
    }
    if len(axes) == 1:
        results["threshold"] = necessary
        return results
    pairs = [povm.simulating_povm(pair) for pair in itertools.combinations(axes, 2)]
    pair_threshold = min(pair.eta for pair in pairs)
    results["pair"] = pair_threshold
    if len(axes) >= 3:
        results["triple"] = sufficient
        gap = pair_threshold > sufficient + STRUCT_TOL
        results["verdict"] = "pairwise beyond triplewise" if gap else "no pairwise/triplewise gap"
    results["povm_checks"] = "ok"
    results["anticorrelation"] = povm._anticorrelation(pairs)
    results["nc_bound"] = povm.nc_bound_noisy(pair_threshold)
    return results


def cmd_network(args) -> dict:
    from . import signet

    with open(args.file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    edges = doc.get("edges", []) if isinstance(doc, dict) else None
    if not isinstance(edges, list) or not all(isinstance(edge, list) for edge in edges):
        raise ValueError('graph JSON needs an object whose "edges" is a list of lists')
    arities = {len(edge) for edge in edges}
    if args.directed and not arities <= {4}:
        raise ValueError("directed graphs need 4-field edges [from, to, base, style]")
    if not args.directed and not arities <= {3}:
        raise ValueError("undirected graphs need 3-field edges [u, v, sign]; "
                         "pass --directed for implication graphs")
    if args.directed:
        graph = signet.DirectedImplicationGraph.from_json_dict(doc)
        if args.start is None or args.value is None:
            raise ValueError("directed checks need --start and --value")
        report = signet.check_implication_chain(graph, args.start, args.value)
        return {
            "directed": True,
            "contradiction": report.contradiction,
            "derived": {str(k): sorted(v) for k, v in sorted(report.derived.items())},
            "trace": report.trace,
        }
    graph = signet.SignedGraph.from_json_dict(doc)
    report = signet.is_frustrated(graph)
    return {
        "directed": False,
        "frustrated": report.frustrated,
        "witness_cycle": list(report.witness),
    }


def cmd_game(args) -> dict:
    from . import games

    spec = games.GameSpec(
        kind=args.kind,
        strategy=args.strategy,
        trials=args.trials,
        seed=args.seed,
        n=args.n,
    )
    return games.simulate(spec).to_dict()


def _sweep_values(args):
    from . import quantum

    if not all(v is None or math.isfinite(v) for v in (args.start, args.stop, args.step)):
        raise ValueError("--start, --stop and --step must be finite")
    if args.step is not None and not args.step > 0:
        raise ValueError("--step must be positive")
    if args.quantity in ("klyachko_R", "mermin_R"):
        for flag, value in (("start", args.start), ("stop", args.stop), ("step", args.step)):
            if value is not None and not value.is_integer():
                raise ValueError(f"cycle sweeps need an integer --{flag}")
        start = int(args.start if args.start is not None else (5 if args.quantity == "klyachko_R" else 3))
        stop = int(args.stop if args.stop is not None else 21)
        step = int(args.step if args.step is not None else 2)
        if start % 2 == 0 or step % 2 == 1:
            raise ValueError("cycle sweeps need odd start and even step")
        ns = range(start, stop + 1, step)
        if ns and ns[-1] > MAX_SWEEP_N:
            raise ValueError(f"cycle sweeps are limited to n <= {MAX_SWEEP_N}")
        for n in ns:
            if args.quantity == "klyachko_R":
                yield n, 1 - 1 / n, quantum.klyachko_value(n).r
            else:
                yield n, 1 - 2 / (3 * n), quantum.mermin_value(n)
    elif args.quantity == "hardy_p":
        start = float(args.start if args.start is not None else 1.0)
        stop = float(args.stop if args.stop is not None else 3.0)
        step = float(args.step if args.step is not None else 0.05)
        span = (stop - start) / step  # +-inf when the difference overflows
        # Rows start + i * step for i = 0..floor(span); the slack keeps a stop
        # that the steps reach up to rounding.
        rows = math.floor(min(max(span, -1.0), MAX_SWEEP_ROWS) + 1e-9) + 1
        if rows > MAX_SWEEP_ROWS:
            raise ValueError(f"hardy_p sweeps are limited to {MAX_SWEEP_ROWS} rows")
        for i in range(rows):
            eta = start + i * step
            yield eta, 0.0, quantum.hardy_value(eta)
    else:
        raise ValueError(f"unknown sweep quantity {args.quantity!r}")


def cmd_sweep(args) -> dict:
    rows = [[param, lo, hi] for param, lo, hi in _sweep_values(args)]
    return {"columns": ["parameter", "classical_bound", "quantum_value"], "rows": rows}


# --------------------------------------------------------------------------
# Parser


def _bounds_arguments(p):
    p.add_argument("family", choices=["ks_ncycle", "bell_ring", "odd_cycle", "pnc"])
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_bounds)


def _povm_arguments(p):
    p.add_argument("--axes", required=True, help="preset name or JSON file of 3-vectors")
    p.set_defaults(func=cmd_povm)


def _network_arguments(p):
    p.add_argument("--file", required=True, help="graph JSON file")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--start", type=int, help="start node for directed chains")
    p.add_argument("--value", type=int, choices=[0, 1], help="start value")
    p.set_defaults(func=cmd_network)


def _game_arguments(p):
    p.add_argument("kind", choices=list(GAME_KINDS))
    p.add_argument("--n", type=int)
    p.add_argument("--strategy", choices=list(STRATEGIES), default="quantum")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_game)


def _sweep_arguments(p):
    p.add_argument("quantity", choices=["klyachko_R", "mermin_R", "hardy_p"])
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--step", type=float)
    p.set_defaults(func=cmd_sweep)


# Each subcommand's help line and the function that adds its own arguments.
_SUBCOMMANDS = {
    "bounds": ("classical bound vs quantum value", _bounds_arguments),
    "povm": ("joint-measurability thresholds for spin axes", _povm_arguments),
    "network": ("frustration / implication-chain analysis", _network_arguments),
    "game": ("Monte Carlo game simulation", _game_arguments),
    "sweep": ("CSV series of classical bound vs quantum value", _sweep_arguments),
}


def build_parser(subcommand: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or one whose subcommands all exist but only
    `subcommand` has its arguments: the others' help lines, names and errors
    need none of theirs."""
    parser = argparse.ArgumentParser(
        prog="seer-lab",
        description="Bounds, certificates, networks and game simulations "
        "for the box-opening prediction scenarios.",
    )
    parser.add_argument("--version", action="version", version=f"seer-lab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_line, add_arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if subcommand is None or subcommand == name:
            add_arguments(p)
            p.add_argument("--json", action="store_true", help="emit a JSON envelope")
            p.add_argument("--csv", action="store_true", help="emit CSV")
            p.add_argument("--timing", action="store_true", help="include wall time")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    command = list(argv) if argv is not None else sys.argv[1:]
    # The top level takes only -h and --version, so argparse dispatches to the
    # first token that does not start with "-": only that subcommand needs its
    # arguments.
    parser = build_parser(next((str(c) for c in command if not str(c).startswith("-")), ""))
    args = parser.parse_args(command)
    if getattr(args, "subcommand", None) == "sweep" and not args.json:
        args.csv = True  # sweeps default to CSV series
    try:
        results = args.func(args)
    except (CertificateError, AssertionError) as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_VERIFICATION
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    try:
        _emit(args, results, [str(c) for c in command], getattr(args, "seed", None), started)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader wants no more; what is still buffered goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


def run() -> None:
    """Run ``main`` on ``sys.argv`` and exit with its code; only for a process
    that ends here, since the collector stays off and what is left is frozen."""
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
