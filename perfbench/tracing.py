"""Span tracing for the benchmark's traced run.

Timing wrappers are installed from here, never from ``src/``: each one
replaces a module (or class, or dispatch-table) attribute that callers
look up at call time, records one span per call and restores the
original on exit.  Spans are kept in flat in-memory arrays (name id,
parent index, start, end) and turned into per-layer metrics at the end.
A layer's self time is its spans' durations minus the time their direct
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

# rotavg.io functions that read or write files, with the parameters
# that name those files.
_IO_FILES = {
    "save_env": ("io.save_env", (), ("path",)),
    "load_env": ("io.load_env", ("path",), ()),
    "save_estimates": ("io.save_estimates", (), ("path",)),
    "load_estimates": ("io.load_estimates", ("path",), ()),
    "export_trace": ("io.export_trace", (), ("path",)),
    "export_summary": ("io.export_summary", (), ("path",)),
    "import_1dsfm": ("io.import", ("path", "gt_path"), ()),
}


class Tracer:
    """Spans of one traced pass, held in flat arrays until the end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.bytes_read = 0
        self.bytes_written = 0

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(self._intern(name))
        try:
            yield
        finally:
            self._finish(idx)

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def wrap_io(self, name: str, fn, reads, writes):
        """Like :meth:`wrap`, also counting the bytes of the files named
        by the ``reads`` and ``writes`` parameters."""
        traced = self.wrap(name, fn)
        sig = inspect.signature(fn)

        def sizes(bound, params):
            paths = [bound.arguments.get(p) for p in params]
            return sum(os.path.getsize(p) for p in paths if p is not None)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            self.bytes_read += sizes(bound, reads)
            result = traced(*args, **kwargs)
            self.bytes_written += sizes(bound, writes)
            return result

        return counted

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
        }


@contextmanager
def installed(tracer: Tracer):
    """Route the rotavg calls the CLI makes through ``tracer``."""
    from rotavg import averaging, cli, envgraph, metrics, rotmath
    from rotavg import io as envio

    undo = []

    def patch(owner, attr, wrapper_of):
        is_table = isinstance(owner, dict)
        original = owner[attr] if is_table else vars(owner)[attr]
        wrapped = wrapper_of(original)
        if is_table:
            owner[attr] = wrapped
            undo.append(lambda: owner.__setitem__(attr, original))
        else:
            setattr(owner, attr, wrapped)
            undo.append(lambda: setattr(owner, attr, original))

    def timed(name):
        return lambda fn: tracer.wrap(name, fn)

    patch(cli, "run_averaging", timed("averaging.run"))
    patch(cli, "generate_uniform_env", timed("envgraph.generate"))
    patch(averaging, "initial_estimates", timed("averaging.init"))
    for algo in list(averaging.STEP_FUNCTIONS):
        patch(averaging.STEP_FUNCTIONS, algo, timed(f"averaging.step.{algo}"))
    patch(averaging.EstimateSet, "to_matrices", timed("metrics.to_matrices"))
    patch(metrics, "evaluate", timed("metrics.evaluate"))
    patch(metrics, "avg_pairwise_error", timed("metrics.pairwise"))
    patch(metrics, "relative_edge_error", timed("metrics.relative"))
    patch(metrics, "absolute_error", timed("metrics.absolute"))
    patch(envgraph.RotationEnvironment, "__init__", timed("envgraph.env_init"))
    for attr, (name, reads, writes) in _IO_FILES.items():
        patch(envio, attr, lambda fn, n=name, r=reads, w=writes: tracer.wrap_io(n, fn, r, w))
    for attr, fn in list(vars(rotmath).items()):
        if inspect.isfunction(fn) and fn.__module__ == rotmath.__name__ \
                and not attr.startswith("_"):
            patch(rotmath, attr, timed(f"rotmath.{attr}"))
    try:
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts of one traced pass.

    Returns every ``per_layer`` metric of BENCHMARK.json except the three
    probe timings, ``metrics.pairwise.peak_mb`` and
    ``trace.overhead_frac``, which the caller measures, plus the
    per-command split of the setup metrics (``cli.gen.s``,
    ``cli.import.s``, ``envgraph.generate.s``, ``io.import.s``).
    """
    arr = tracer.arrays()
    names = arr["names"]
    nid, parent = arr["name_id"], arr["parent"]
    dur = arr["end"] - arr["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=dur.size)
    self_time = dur - child_time
    span_name = names[nid]
    prefix = np.char.partition(span_name, ".")[:, 0]

    def select(name):
        if name.endswith("."):
            return np.char.startswith(span_name, name)
        return span_name == name

    def total(name):
        return float(dur[select(name)].sum())

    def calls(name):
        return int(np.count_nonzero(select(name)))

    def per_call_ms(name):
        n = calls(name)
        return 1000.0 * total(name) / n if n else 0.0

    is_step = select("averaging.step.")
    is_rotmath = prefix == "rotmath"
    # a span lies under a step when any ancestor is a step span
    under_step = np.zeros(dur.size, dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        under_step[live] |= is_step[anc[live]]
        anc[live] = parent[anc[live]]
    parent_is_rotmath = np.zeros(dur.size, dtype=bool)
    parent_is_rotmath[has_parent] = is_rotmath[parent[has_parent]]
    parent_is_run = np.zeros(dur.size, dtype=bool)
    parent_is_run[has_parent] = select("averaging.run")[parent[has_parent]]

    steps = int(np.count_nonzero(is_step))
    run_s = total("averaging.run")
    eval_in_run = float(dur[select("metrics.evaluate") & parent_is_run].sum())
    cli_spans = prefix == "cli"
    return {
        "averaging.run.calls": calls("averaging.run"),
        "averaging.run.s": run_s,
        "averaging.init.s": total("averaging.init"),
        "averaging.step.calls": steps,
        "averaging.step.s": float(dur[is_step].sum()),
        "averaging.step.self_s": float(self_time[is_step].sum()),
        "rotmath.calls_per_step":
            int(np.count_nonzero(is_rotmath & under_step)) / steps if steps else 0.0,
        "rotmath.s": float(dur[is_rotmath & ~parent_is_rotmath].sum()),
        "metrics.evaluate.calls": calls("metrics.evaluate"),
        "metrics.evaluate.s": total("metrics.evaluate"),
        "metrics.evaluate.ms": per_call_ms("metrics.evaluate"),
        "metrics.pairwise.s": total("metrics.pairwise"),
        "metrics.pairwise.ms": per_call_ms("metrics.pairwise"),
        "metrics.relative.s": total("metrics.relative"),
        "metrics.relative.ms": per_call_ms("metrics.relative"),
        "metrics.absolute.s": total("metrics.absolute"),
        "metrics.absolute.ms": per_call_ms("metrics.absolute"),
        "metrics.to_matrices.s": total("metrics.to_matrices"),
        "metrics.eval_share": eval_in_run / run_s if run_s else 0.0,
        "io.save_env.s": total("io.save_env"),
        "io.load_env.s": total("io.load_env"),
        "io.load_env.calls": calls("io.load_env"),
        "io.export_trace.s": total("io.export_trace"),
        "io.export_summary.s": total("io.export_summary"),
        "io.save_estimates.s": total("io.save_estimates"),
        "io.load_estimates.s": total("io.load_estimates"),
        "io.bytes_written": tracer.bytes_written,
        "io.bytes_read": tracer.bytes_read,
        "envgraph.env_init.s": total("envgraph.env_init"),
        "envgraph.env_init.calls": calls("envgraph.env_init"),
        "envgraph.generate.s": total("envgraph.generate"),
        "io.import.s": total("io.import"),
        "setup.build.s": total("envgraph.generate") + total("io.import"),
        "cli.gen.s": total("cli.gen"),
        "cli.import.s": total("cli.import"),
        "cli.setup.s": total("cli.gen") + total("cli.import"),
        "cli.bench.s": total("cli.bench"),
        "cli.run.s": total("cli.run"),
        "cli.eval.s": total("cli.eval"),
        "cli.self_s": float(self_time[cli_spans].sum()),
    }
