"""Batch command-line front end.

Subcommands: ``bounds`` (classical bound vs quantum value plus certificate
status), ``povm`` (joint-measurability thresholds for spin axes), ``network``
(frustration / implication-chain checks on graph JSON), ``game`` (seeded
Monte Carlo), and ``sweep`` (CSV data series).  Output is a human-readable
table by default, or a JSON envelope / CSV with ``--json`` / ``--csv``.
Numbers are printed with 12 significant digits and outputs are byte-identical
for identical arguments; wall time is only included with ``--timing``.

Exit codes: 0 success, 2 usage or input error, 3 certificate or invariant
failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from typing import Optional, Sequence

from . import __version__, classical, games, povm, quantum, signet
from .quantum import CertificateError
from .tolerances import STRUCT_TOL

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3

# Largest sweeps, set from a 5 s budget (whole processes, 2-core host): a
# hardy_p row takes 0.33 ms (10,000 rows 3.3 s); a cycle row costs O(n), and
# mermin_R over odd n = 3..201 takes 1.7 s (klyachko_R over n = 5..201,
# 0.58 s).  MAX_SWEEP_N also caps `bounds ks_ncycle`, which takes 0.36 s at
# n = 201 (certificate residual 3.0e-13).
MAX_SWEEP_ROWS = 10_000
MAX_SWEEP_N = 201


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
    elif getattr(args, "csv", False):
        if isinstance(results, dict) and "columns" in results and "rows" in results:
            sys.stdout.write(",".join(results["columns"]) + "\n")
            for row in results["rows"]:
                sys.stdout.write(",".join(_fmt(v) for v in row) + "\n")
        else:
            sys.stdout.write("key,value\n")
            for key, value in _flatten(results):
                sys.stdout.write(f"{key},{_fmt(value)}\n")
    else:
        if isinstance(results, dict) and "columns" in results and "rows" in results:
            sys.stdout.write("  ".join(results["columns"]) + "\n")
            for row in results["rows"]:
                sys.stdout.write("  ".join(_fmt(v) for v in row) + "\n")
        else:
            rows = _flatten(results)
            width = max((len(k) for k, _ in rows), default=0)
            for key, value in rows:
                sys.stdout.write(f"{key.ljust(width)}  {_fmt(value)}\n")
        if getattr(args, "timing", False):
            sys.stdout.write(f"wall_time_ms  {_fmt((time.perf_counter() - started) * 1e3)}\n")


# --------------------------------------------------------------------------
# Subcommands


def _require_odd(n: Optional[int], minimum: int, what: str) -> int:
    if n is None:
        raise ValueError(f"--n is required for {what}")
    if n < minimum or n % 2 == 0:
        raise ValueError(f"{what} needs odd n >= {minimum}")
    return n


def cmd_bounds(args) -> dict:
    family = args.family
    if family == "ks_ncycle":
        n = _require_odd(args.n, 5, "ks_ncycle")
        if n > MAX_SWEEP_N:
            raise ValueError(f"ks_ncycle is limited to n <= {MAX_SWEEP_N}")
        classical_bound = classical.ks_bound_ncycle(n).r_nc
        quantum_value = quantum.klyachko_value(n).r
        cert = quantum.sos_certificate_klyachko(n)
        certificate = f"ok (residual {cert.residual:.3e})"
    elif family == "bell_ring":
        n = _require_odd(args.n, 3, "bell_ring")
        classical_bound = classical.local_bound("os_ring", n).value
        quantum_value = quantum.mermin_value(n)
        cert = quantum.sos_certificate_bell(n)
        certificate = f"ok (residual {cert.residual:.3e})"
    elif family == "odd_cycle":
        n = _require_odd(args.n, 3, "odd_cycle")
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
        if result.obliviousness_defect >= STRUCT_TOL:
            raise CertificateError(
                f"trit-obliviousness defect {result.obliviousness_defect:.3e}"
            )
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
    if spec in povm.PRESET_AXES:
        return spec
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError("the axes JSON must be a list of 3-vectors")
        return data
    raise ValueError(f"--axes must be a preset {sorted(povm.PRESET_AXES)} or a JSON file")


def cmd_povm(args) -> dict:
    axes = _load_axes(args.axes)
    axes_tuple = povm.PRESET_AXES[axes] if isinstance(axes, str) else axes
    n_axes = len(axes_tuple)
    necessary, sufficient = povm.eta_necessary(axes), povm.eta_sufficient(axes)
    results: dict = {
        "axes": args.axes,
        "n_axes": n_axes,
        "eta_necessary": necessary,
        "eta_sufficient": sufficient,
    }
    if n_axes == 1:
        results["threshold"] = necessary
        return results
    pair_thresholds = [
        povm.eta_sufficient([axes_tuple[j], axes_tuple[k]])
        for j, k in itertools.combinations(range(n_axes), 2)
    ]
    pair_threshold = min(pair_thresholds)
    results["pair"] = pair_threshold
    if n_axes >= 3:
        results["triple"] = sufficient
        results["verdict"] = (
            "pairwise beyond triplewise"
            if pair_threshold > sufficient + 1e-12
            else "no pairwise/triplewise gap"
        )
    povm.simulating_povm(axes)  # raises on completeness/marginal failure
    results["povm_checks"] = "ok"
    results["anticorrelation"] = povm.anticorrelation_value(axes)
    results["nc_bound"] = povm.nc_bound_noisy(pair_threshold, verify=False)
    return results


def cmd_network(args) -> dict:
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
    spec = games.GameSpec(
        kind=args.kind,
        strategy=args.strategy,
        trials=args.trials,
        seed=args.seed,
        n=args.n,
    )
    return games.simulate(spec).to_dict()


def _sweep_values(args):
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seer-lab",
        description="Bounds, certificates, networks and game simulations "
        "for the box-opening prediction scenarios.",
    )
    parser.add_argument("--version", action="version", version=f"seer-lab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_output_flags(p):
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        p.add_argument("--csv", action="store_true", help="emit CSV")
        p.add_argument("--timing", action="store_true", help="include wall time")

    p = sub.add_parser("bounds", help="classical bound vs quantum value")
    p.add_argument("family", choices=["ks_ncycle", "bell_ring", "odd_cycle", "pnc"])
    p.add_argument("--n", type=int)
    add_output_flags(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("povm", help="joint-measurability thresholds for spin axes")
    p.add_argument("--axes", required=True, help="preset name or JSON file of 3-vectors")
    add_output_flags(p)
    p.set_defaults(func=cmd_povm)

    p = sub.add_parser("network", help="frustration / implication-chain analysis")
    p.add_argument("--file", required=True, help="graph JSON file")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--start", type=int, help="start node for directed chains")
    p.add_argument("--value", type=int, choices=[0, 1], help="start value")
    add_output_flags(p)
    p.set_defaults(func=cmd_network)

    p = sub.add_parser("game", help="Monte Carlo game simulation")
    p.add_argument("kind", choices=list(games.GAME_KINDS))
    p.add_argument("--n", type=int)
    p.add_argument("--strategy", choices=list(games.STRATEGIES), default="quantum")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    add_output_flags(p)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("sweep", help="CSV series of classical bound vs quantum value")
    p.add_argument("quantity", choices=["klyachko_R", "mermin_R", "hardy_p"])
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--step", type=float)
    add_output_flags(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
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
    command = list(argv) if argv is not None else sys.argv[1:]
    _emit(args, results, [str(c) for c in command], getattr(args, "seed", None), started)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
