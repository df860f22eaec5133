"""seer-lab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the run measures the end-to-end metrics with
no wrappers installed, rescaled to a host of steady speed (see
``calibration.py``).  With ``--trace 1`` it runs every operation untraced
and traced back to back and reports the per-layer metrics.  Every operation's result is
checked (see ``oracles.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Details of
the run (environment, per-pass figures, failures, spans, import times) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("cli-session", "marginal-lp", "exact-bounds", "monte-carlo")
SETUP_SPAWNS = 5
IMPORTTIME_SPAWNS = 3
IMPORT_STATEMENT = "import seer_lab.cli"

# Figures derived from call arguments rather than measured.
COMPUTED = ("scenario.lp_matrix_mb", "classical.assignments", "classical.ns_per_assignment",
            "games.trials", "games.ns_per_trial")


def hermetic_env() -> dict[str, str]:
    """Pin the environment of this process and of every process it starts:
    one BLAS and OpenMP thread, no worker-count override, the checkout's
    ``src``.  Call before numpy is imported, so its thread pools see it."""
    os.environ.pop("SEER_LAB_THREADS", None)
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    return dict(os.environ)


def spawn(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    return time.perf_counter() - started, proc


def run_pass(ops, cpu, deadline: float = math.inf, host=None) -> dict:
    """Run the operations in order, timing only each call, then check its
    result.  Stops early, after the operation in progress, at ``deadline``.
    With ``host``, samples the host's speed between operations."""
    latencies, cpu_ms, failures, starts = [], [], [], []
    for op in ops:
        if time.perf_counter() >= deadline:
            break
        error = result = None
        c0, t0 = cpu(), time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a crash in the program is a failed operation
            error = exc
        t1, c1 = time.perf_counter(), cpu()
        latencies.append((t1 - t0) * 1e3)
        starts.append(t0)
        cpu_ms.append((c1 - c0) * 1e3)
        if error is None:
            try:
                op.check(result)
            except Exception as exc:  # includes unreadable output
                error = exc
        if error is not None:
            failures.append(f"{op.label}: {type(error).__name__}: {error}")
            print(f"FAILED {failures[-1]}", file=sys.stderr)
        if host is not None:
            host.maybe_sample()
    return {"wall_s": sum(latencies) / 1e3, "cpu_s": sum(cpu_ms) / 1e3, "latencies_ms": latencies,
            "cpu_ms": cpu_ms, "failures": failures, "attempted": len(latencies), "starts": starts}


def per_op(passes, key, pick=min) -> list[float]:
    """Each operation's figure over the passes of a run, best (lowest) by
    default; the first pass is complete, the last may be cut short."""
    return [pick([p[key][i] for p in passes if i < len(p[key])]) for i in range(len(passes[0][key]))]


def rescale(passes, host) -> None:
    """Add each call's wall and CPU time at the host's reference speed
    (see ``calibration``) to its pass."""
    for p in passes:
        scales = [host.scales(t) for t in p["starts"]]
        p["ref_wall_ms"] = [x * w for x, (w, _) in zip(p["latencies_ms"], scales)]
        p["ref_cpu_ms"] = [x * c for x, (_, c) in zip(p["cpu_ms"], scales)]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and that percentile."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def setup_samples(env, host) -> tuple[list[float], list[float], int]:
    """Wall time from spawning a fresh interpreter to ``seer_lab.cli``
    imported, at the host's reference speed, and as measured."""
    samples, measured, failed = [], [], 0
    host.sample()
    for _ in range(SETUP_SPAWNS):
        started = time.perf_counter()
        wall, proc = spawn([sys.executable, "-c", IMPORT_STATEMENT], env)
        failed += proc.returncode != 0
        host.sample()
        samples.append(wall * host.scales(started)[0])
        measured.append(wall)
    return samples, measured, failed


def import_breakdown(env) -> tuple[list[float], list[float], dict[str, float], int]:
    """Parse ``-X importtime`` into per-module cumulative ms (several spawns)."""
    totals, scipy_opt, modules, failed = [], [], {}, 0
    for _ in range(IMPORTTIME_SPAWNS):
        _, proc = spawn([sys.executable, "-X", "importtime", "-c", IMPORT_STATEMENT], env)
        failed += proc.returncode != 0
        modules, total = {}, 0.0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2].rstrip()
            module = name.strip()
            cumulative_ms = int(fields[1]) / 1e3
            modules.setdefault(module, cumulative_ms)
            if len(name) - len(module) == 1 and module.split(".")[0] == "seer_lab":
                total += cumulative_ms  # top-level entries of the import statement
        totals.append(total)
        scipy_opt.append(modules.get("scipy.optimize", 0.0))
    return totals, scipy_opt, modules, failed


def environment() -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_py_lines": src_lines,
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def build_ops(workload, seed, run_cli, seen):
    import workloads

    if workload == "cli-session":
        return workloads.cli_session(seed, OUT / "inputs", run_cli, seen)
    return workloads.IN_PROCESS[workload](seed)


def _summary(p: dict) -> dict:
    return {k: v for k, v in p.items() if k in ("wall_s", "cpu_s", "failures", "attempted")}


def measure_untraced(workload, seed, seconds, env, record) -> dict:
    import calibration
    import workloads

    cli_session = workload == "cli-session"
    ops = build_ops(workload, seed, workloads.process_runner(ROOT, env), {})
    cpu = calibration.children_cpu_s if cli_session else time.process_time
    spawns = calibration.spawned(env)
    host = spawns if cli_session else calibration.in_process()
    # One complete pass, then passes until the time is up; the last is cut
    # off there, so the number of samples changes smoothly with speed.
    deadline = time.perf_counter() + seconds
    passes = [run_pass(ops, cpu, host=host)]
    while time.perf_counter() < deadline:
        passes.append(run_pass(ops, cpu, deadline, host))
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli_session else resource.RUSAGE_SELF)
    setup, setup_measured, setup_failed = setup_samples(env, spawns)
    rescale(passes, host)

    # Each operation's median over the passes, at the reference speed.
    latencies = per_op(passes, "ref_wall_ms", statistics.median)
    tail_ms, tail_pct = tail(latencies)
    record.update(passes=[_summary(p) for p in passes], setup_samples_s=setup_measured,
                  pass_latency_ms=[p["latencies_ms"] for p in passes], pass_starts=[p["starts"] for p in passes],
                  calibration_at=host.at, calibration_wall_s=host.wall, spawn_kernel_wall_s=spawns.wall,
                  measured={"setup_s": statistics.median(setup_measured),
                            "wall_s": sum(per_op(passes, "latencies_ms", statistics.median)) / 1e3,
                            "cpu_s": sum(per_op(passes, "cpu_ms", statistics.median)) / 1e3},
                  op_latency={"samples": len(latencies), "p50_ms": statistics.median(latencies),
                              "tail_ms": tail_ms, "tail_percentile": tail_pct})
    record["failures"] = [f for p in passes for f in p["failures"]] + ["setup spawn failed"] * setup_failed
    record["attempted"] = sum(p["attempted"] for p in passes) + len(setup)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(latencies) / 1e3,
        "cpu_s": sum(per_op(passes, "ref_cpu_ms", statistics.median)) / 1e3,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def _traced(op, tracer):
    def call():
        tracer.install()
        try:
            return op.call()
        finally:
            tracer.uninstall()

    return replace(op, call=call)


def measure_traced(workload, seed, seconds, env, record) -> dict:
    import calibration
    import tracing
    import workloads

    totals, scipy_opt, modules, import_failed = import_breakdown(env)
    seen: dict = {}
    cli_session = workload == "cli-session"
    if cli_session:
        spawned = build_ops(workload, seed, workloads.process_runner(ROOT, env), seen)
    ops = build_ops(workload, seed, workloads.inprocess_runner, seen)
    started = time.perf_counter()
    cycles, spawn_passes, untraced, traced, spans, spawn_ms = [], [], [], [], [], []
    while not cycles or time.perf_counter() - started + statistics.median(cycles) <= seconds:
        cycle_start = time.perf_counter()
        if cli_session:
            spawn_passes.append(run_pass(spawned, calibration.children_cpu_s))
        # Each operation runs untraced and traced back to back, in alternating
        # order, so both calls of a pair see the same load on the host.
        tracer = tracing.Tracer()
        paired = []
        for i, op in enumerate(ops):
            pair = (op, _traced(op, tracer))
            paired += pair if i % 2 == 0 else pair[::-1]
        both = run_pass(paired, time.process_time)
        lat = both.pop("latencies_ms")
        del both["cpu_ms"]
        untraced.append({"latencies_ms": [lat[2 * i + (i % 2)] for i in range(len(ops))]})
        traced.append({"latencies_ms": [lat[2 * i + 1 - (i % 2)] for i in range(len(ops))], **both})
        spans.append(tracer.spans)
        if cli_session:
            # Process wall time minus the same call's in-process cli.main.
            mains = tracing.main_durations_ms(tracer.spans)
            walls = spawn_passes[-1]["latencies_ms"]
            if len(mains) == len(walls):
                spawn_ms += [w - m for w, m in zip(walls, mains)]
        cycles.append(time.perf_counter() - cycle_start)

    per_pass = [tracing.layer_metrics(s) for s in spans]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    cli_ms = per_op(spawn_passes, "latencies_ms") if cli_session else [0.0]
    cli_tail_ms, cli_tail_pct = tail(cli_ms)
    record["cli_tail_percentile"] = cli_tail_pct
    metrics.update({
        "cli.p50_ms": statistics.median(cli_ms),
        "cli.tail_ms": cli_tail_ms,
        "cli.import_ms": statistics.median(totals),
        "cli.import.scipy_optimize_ms": statistics.median(scipy_opt),
        "cli.spawn_ms": statistics.median(spawn_ms) if spawn_ms else 0.0,
        "trace.overhead_s": (sum(per_op(traced, "latencies_ms"))
                             - sum(per_op(untraced, "latencies_ms"))) / 1e3,
    })
    passes = spawn_passes + traced
    record.update(
        passes=[_summary(p) for p in passes],
        absent=tracer.absent, computed=list(COMPUTED),
        import_cumulative_ms=dict(sorted(modules.items(), key=lambda kv: -kv[1])),
        spans=spans[-1],
    )
    record["failures"] = [f for p in passes for f in p["failures"]] + ["importtime spawn failed"] * import_failed
    record["attempted"] = sum(p["attempted"] for p in passes) + IMPORTTIME_SPAWNS
    return metrics


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints each result."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print(f"== {workload} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "seer_lab" / "__init__.py").is_file():
        print(f"error: no seer_lab package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    env = hermetic_env()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    measure = measure_traced if args.trace else measure_untraced
    measured = measure(args.workload, args.seed, args.seconds, env, record)
    values = {name: measured[name] for name in units}
    failed = len(record["failures"])
    record["metrics"] = values
    record["error_rate"] = failed / record["attempted"]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    for key, value in record["environment"].items():
        print(f"# env {key} = {value}")
    print(f"# error_rate = {record['error_rate']:.6g} ({failed} of {record['attempted']} operations failed)")
    if args.trace:
        print(f"# cli.tail_ms is p{record['cli_tail_percentile']:.1f} of the session's CLI calls")
    else:
        lat = record["op_latency"]
        print(f"# operation latency (not gated): p50 {lat['p50_ms']:.6g} ms, "
              f"p{lat['tail_percentile']:.1f} {lat['tail_ms']:.6g} ms of {lat['samples']} operations")
    for name, value in values.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"# {name} = {value:.6g} {units[name]}{label}")
    print(f"# details: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
