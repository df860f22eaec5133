"""Spans around calls into ``seer_lab``, recorded from outside the program.

``Tracer.install`` replaces public functions by module attribute (for example
``classical.local_bound``) with wrappers that record a span: name, start,
end and parent.  Calls inside the package that go through the module
attribute, including calls within one module, are caught.  Calls through a
name bound by ``from x import y`` (most ``numkit`` helpers) are not; their
time counts as the caller's self time.  A listed name that the program no
longer has is recorded as absent, not as a failure.
"""

from __future__ import annotations

import functools
import statistics
import time
from types import ModuleType
from typing import Any, Callable, Optional

from seer_lab import classical, cli, games, numkit, povm, quantum, scenario, signet


def _dense_lp_mb(args, kwargs, result) -> dict:
    """Computed size of the dense phase-1 matrix [A I -I]: one row per context
    outcome plus normalisation, 2^n atoms plus two artificials per row, 8 bytes
    per entry."""
    table = args[0]
    rows = 1 + sum(2 ** len(ctx) for ctx in table.probs)
    return {"matrix_mb": rows * (2 ** table.scenario.n_measurements + 2 * rows) * 8 / 1e6}


def _highs(args, kwargs, result) -> dict:
    return {"status": int(result.status), "nit": int(getattr(result, "nit", 0) or 0)}


def _residual(args, kwargs, result) -> dict:
    return {"residual": float(result.residual)}


def _local_bound_assignments(args, kwargs, result) -> dict:
    game = args[0]
    if isinstance(game, str):
        n = 3 if game == "os3" else (args[1] if len(args) > 1 else kwargs["n"])
    else:
        n = game.n_a
    return {"assignments": 2**n}


def _trials(args, kwargs, result) -> dict:
    return {"trials": args[0].trials}


# Functions wrapped per module, with the attributes recorded from a call.
TARGETS: dict[ModuleType, dict[str, Optional[Callable[..., dict]]]] = {
    cli: dict.fromkeys(("main", "cmd_bounds", "cmd_povm", "cmd_network", "cmd_game", "cmd_sweep")),
    scenario: {
        "joint_distribution_feasible": _dense_lp_mb,
        "linprog": _highs,
        "build_os_ncycle": None,
        "cycle_correlation_table": None,
        "deterministic_table": None,
        "build_bipartite_table": None,
    },
    classical: {
        "ks_bound_ncycle": lambda a, k, r: {"assignments": 2 ** a[0]},
        "local_bound": _local_bound_assignments,
        # 4 trit-oblivious encodings x 2^6 response maps; 2^3 x 2^3 strategies.
        "pnc_bound_diachronic": lambda a, k, r: {"assignments": 4 * 2**6},
        "s3_local_bound": lambda a, k, r: {"assignments": 2**6},
    },
    quantum: {
        "klyachko_value": None,
        "mermin_value": None,
        "odd_cycle_game_value": None,
        "seer_game_win_probability": None,
        "hardy_value": None,
        "hardy_optimize": None,
        "diachronic_quantum": None,
        "klyachko_table": None,
        "mermin_table": None,
        "odd_cycle_table": None,
        "sos_certificate_klyachko": _residual,
        "sos_certificate_bell": _residual,
        "clifton_check": None,
    },
    numkit: {"eig_extrema": None},
    povm: dict.fromkeys(("eta_necessary", "eta_sufficient", "simulating_povm", "anticorrelation_value",
                         "nc_bound_noisy")),
    signet: dict.fromkeys(("is_frustrated", "check_implication_chain")),
    games: {"simulate": _trials},
}

# Span names that make up each layer's time.
LAYERS = {
    "scenario.table": {"scenario.build_os_ncycle", "scenario.cycle_correlation_table",
                       "scenario.deterministic_table", "scenario.build_bipartite_table"},
    "classical.enum": {"classical.ks_bound_ncycle", "classical.local_bound",
                       "classical.pnc_bound_diachronic", "classical.s3_local_bound"},
    "quantum.value": {"quantum.klyachko_value", "quantum.mermin_value", "quantum.odd_cycle_game_value",
                      "quantum.seer_game_win_probability", "quantum.hardy_value", "quantum.hardy_optimize",
                      "quantum.diachronic_quantum"},
    "quantum.table": {"quantum.klyachko_table", "quantum.mermin_table", "quantum.odd_cycle_table"},
    "quantum.cert": {"quantum.sos_certificate_klyachko", "quantum.sos_certificate_bell", "quantum.clifton_check"},
    "numkit.eig": {"numkit.eig_extrema"},
    "signet.frustration": {"signet.is_frustrated", "signet.check_implication_chain"},
    "povm": {f"povm.{name}" for name in TARGETS[povm]},
    "games.simulate": {"games.simulate"},
}


class Tracer:
    """Holds the spans of one traced pass in memory."""

    def __init__(self):
        self.spans: list[dict[str, Any]] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[ModuleType, str, Any]] = []

    def install(self) -> None:
        for module, names in TARGETS.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for name, attrs in names.items():
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.append(f"{short}.{name}")
                    continue
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(f"{short}.{name}", original, attrs))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, name: str, fn: Callable, attrs: Optional[Callable[..., dict]]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return wrapper


def _durations(spans) -> tuple[list[float], list[float]]:
    """Each span's duration and self time (duration minus its children's), in ms."""
    duration = [(s["end"] - s["start"]) * 1e3 for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s["parent"] is not None:
            child[s["parent"]] += d
    return duration, [d - c for d, c in zip(duration, child)]


def _layer_ms(spans, duration, names) -> float:
    """Time inside any span of the layer, counting nested spans of the same
    layer once."""
    total = 0.0
    for i, s in enumerate(spans):
        if s["name"] not in names:
            continue
        parent = s["parent"]
        while parent is not None and spans[parent]["name"] not in names:
            parent = spans[parent]["parent"]
        if parent is None:
            total += duration[i]
    return total


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one traced pass of a workload."""
    duration, self_ms = _durations(spans)

    def of(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    lp, highs = of("scenario.joint_distribution_feasible"), of("scenario.linprog")
    main, sim = of("cli.main"), of("games.simulate")
    enum = [s for s in spans if s["name"] in LAYERS["classical.enum"]]
    frustration = [s for s in spans if s["name"] in LAYERS["signet.frustration"]]
    residuals = [s["residual"] for s in spans if "residual" in s]
    assignments = sum(s["assignments"] for s in enum)
    trials = sum(spans[i]["trials"] for i in sim)
    enum_ms = _layer_ms(spans, duration, LAYERS["classical.enum"])
    sampler_ms = sum(self_ms[i] for i in sim)
    return {
        "cli.main_self_ms": statistics.median([self_ms[i] for i in main]) if main else 0.0,
        "scenario.lp_calls": len(lp),
        "scenario.lp_build_ms": sum(self_ms[i] for i in lp),
        "scenario.lp_solve_ms": sum(duration[i] for i in highs),
        "scenario.lp_iterations": sum(spans[i]["nit"] for i in highs),
        "scenario.lp_matrix_mb": max((spans[i]["matrix_mb"] for i in lp), default=0.0),
        "scenario.table_build_ms": _layer_ms(spans, duration, LAYERS["scenario.table"]),
        "classical.enum_ms": enum_ms,
        "classical.assignments": assignments,
        "classical.ns_per_assignment": enum_ms * 1e6 / assignments if assignments else 0.0,
        "quantum.value_ms": _layer_ms(spans, duration, LAYERS["quantum.value"]),
        "quantum.table_ms": _layer_ms(spans, duration, LAYERS["quantum.table"]),
        "quantum.cert_ms": _layer_ms(spans, duration, LAYERS["quantum.cert"]),
        "quantum.cert_residual_max": max(residuals, default=0.0),
        "numkit.eig_ms": _layer_ms(spans, duration, LAYERS["numkit.eig"]),
        "signet.frustration_ms": _layer_ms(spans, duration, LAYERS["signet.frustration"]),
        "signet.calls": len(frustration),
        "povm.ms": _layer_ms(spans, duration, LAYERS["povm"]),
        "games.simulate_ms": _layer_ms(spans, duration, LAYERS["games.simulate"]),
        "games.sampler_self_ms": sampler_ms,
        "games.trials": trials,
        "games.ns_per_trial": sampler_ms * 1e6 / trials if trials else 0.0,
    }


def main_durations_ms(spans) -> list[float]:
    """Duration of each top-level ``cli.main`` call, in call order."""
    return [(s["end"] - s["start"]) * 1e3 for s in spans if s["name"] == "cli.main" and s["parent"] is None]
