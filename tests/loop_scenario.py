"""The per-context canonicalisation of ``scenario.Scenario``, kept as the
reference for its one-pass version: each context in turn is sorted, then
checked for emptiness, a repeated measurement, the measurement range and an
earlier equal context, and the first failure raises."""


def loop_contexts(n_measurements: int, contexts) -> tuple[tuple[int, ...], ...]:
    canon = []
    seen = set()
    for ctx in contexts:
        ctx = tuple(sorted(int(i) for i in ctx))
        if not ctx:
            raise ValueError("contexts must be nonempty")
        if len(set(ctx)) != len(ctx):
            raise ValueError(f"repeated measurement in context {ctx}")
        if ctx[0] < 1 or ctx[-1] > n_measurements:
            raise ValueError(f"context {ctx} outside measurement range")
        if ctx in seen:
            raise ValueError(f"duplicate context {ctx}")
        seen.add(ctx)
        canon.append(ctx)
    return tuple(canon)
