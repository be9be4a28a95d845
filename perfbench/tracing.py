"""Spans around the calls a job makes into each module, from outside ``src/``.

``instrument`` swaps the module handles that ``galois_factor.cli`` calls
through (``fio``, ``fz``, ``fy`` and ``concepts``) for proxies whose public
functions open a span around the real call, plus the ``normalize`` handle
``factorize`` uses.  Library code calling itself is otherwise untouched, so
a traced run does the same work as an untraced one.  The one difference is
order: after an enumeration returns, the proxy reads the lattice's lazy
``.covers`` in its own span, so that enumeration, covers and serialisation
are timed apart; serialisation then finds the covers cached.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Spans and counts held in memory; one span per session, job and call."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent id, start, end, session id]
        self.counts: list[Counter] = []  # per session
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if parent == -1:
            self.counts.append(Counter())
        record = [name, parent, time.perf_counter(), 0.0, len(self.counts) - 1]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[-1][name] += value

    def self_times(self) -> list[float]:
        """Per span, its duration minus the part its child spans cover.

        Children of one parent run one after another, so their durations add.
        """
        own = [end - start for _, _, start, end, _ in self.spans]
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def as_jsonable(self) -> list[dict]:
        return [
            {"id": i, "name": n, "parent": p, "start": s, "end": e, "session": k}
            for i, (n, p, s, e, k) in enumerate(self.spans)
        ]


class _Proxy:
    """A module stand-in: traced functions first, everything else passed through."""

    def __init__(self, module, traced: dict):
        self._module = module
        self.__dict__.update(traced)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _traced(tracer: Tracer, span: str, fn, after=None):
    def call(*args, **kwargs):
        with tracer.span(span):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, *args)
        return result

    return call


def instrument(cli, tracer: Tracer):
    """Install the proxies into ``cli``; returns a function that removes them."""
    fio, fz, fy, concepts = cli.fio, cli.fz, cli.fy, cli.concepts
    factorization_normalize = fz.normalize

    def covers(lattice, *_):
        with tracer.span("order.covers"):
            tracer.count("order.cover_edges", len(lattice.covers))

    def after_concepts(lattice, *_):
        tracer.count("contexts.concepts", len(lattice))
        covers(lattice)

    def after_cn(lattice, *_):
        tracer.count("factorization.atoms", len(lattice.atom_pairs))
        tracer.count("factorization.cn_pairs", lattice.pair_count)
        with tracer.span("factorization.cn_covers"):
            lattice.covers

    def grid(ctx):
        # computed from the input, not counted inside the scan
        tracer.count("fuzzy.grid_candidates", len(ctx.l2) ** len(ctx.objects))

    def after_fn(lattice, ctx, *_):
        tracer.count("fuzzy.fn_pairs", len(lattice))
        grid(ctx)
        covers(lattice)

    def after_fuzzy_concepts(lattice, ctx, *_):
        tracer.count("fuzzy.concepts", len(lattice))
        grid(ctx)
        covers(lattice)

    io_calls = {
        "parse_cxt": "io.parse", "parse_fuzzy_csv": "io.parse",
        "to_jsonable": "io.serialize", "emit_json": "io.serialize", "emit_dot": "io.serialize",
    }
    fuzzy_checks = (
        "check_fp1", "check_fp2", "check_fp3", "check_fp4", "interval_from_pair",
        "is_fuzzy_normalized", "is_top_normalized",
    )
    cli.fio = _Proxy(fio, {n: _traced(tracer, s, getattr(fio, n)) for n, s in io_calls.items()})
    cli.concepts = _traced(tracer, "contexts.concepts", concepts, after_concepts)
    cli.fz = _Proxy(fz, {
        "factorize": _traced(tracer, "factorization.factorize", fz.factorize),
        "reassemble": _traced(tracer, "factorization.reassemble", fz.reassemble),
        "rstar": _traced(tracer, "factorization.rstar", fz.rstar),
        "cn_enumerate": _traced(tracer, "factorization.cn_enumerate", fz.cn_enumerate, after_cn),
        "block_bounds": _traced(tracer, "factorization.block_bounds", fz.block_bounds),
    })
    cli.fy = _Proxy(fy, {
        "fn_enumerate": _traced(tracer, "fuzzy.fn_enumerate", fy.fn_enumerate, after_fn),
        "fuzzy_concepts": _traced(tracer, "fuzzy.concepts", fy.fuzzy_concepts, after_fuzzy_concepts),
        **{n: _traced(tracer, "fuzzy.checks", getattr(fy, n)) for n in fuzzy_checks},
    })
    fz.normalize = _traced(tracer, "contexts.normalize", factorization_normalize)

    def restore():
        cli.fio, cli.fz, cli.fy, cli.concepts = fio, fz, fy, concepts
        fz.normalize = factorization_normalize

    return restore
