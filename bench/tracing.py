"""Span tracer that wraps robinsim's public names where they are looked up.

Spans are recorded from the benchmark's own code, around calls into each
layer: ``instrument`` swaps a module attribute for a wrapper while it is
active and restores it afterwards, so the untraced runs see the program
unchanged. A call becomes one span; an iterator returned by a layer gets one
span per ``next()``, so lazily generated or loaded records are charged to the
layer that produced them. Spans live in memory; ``Profile`` folds each
operation's spans into per-layer self times (span minus the spans inside it).
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT_SPAN = "bench.op"


class Tracer:
    """Spans of the current operation plus counters and gauges set at layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.gauges: dict[str, int] = {}

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def gauge(self, name: str, value: int) -> None:
        self.gauges[name] = max(self.gauges.get(name, 0), value)


class _TracedIter:
    def __init__(self, tracer: Tracer, name: str, inner, on_exhausted=None) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = iter(inner)
        self._on_exhausted = on_exhausted

    def __iter__(self):
        return self

    def __next__(self):
        index = self._tracer.begin(self._name)
        try:
            item = next(self._inner)
        except StopIteration:
            if self._on_exhausted is not None:
                self._on_exhausted()
            raise
        finally:
            self._tracer.end(index)
        self._tracer.counts[self._name + ".items"] += 1
        return item


def _call(tracer: Tracer, name: str, fn, count=None):
    """Wrap ``fn`` in a span; ``count(args, result)`` yields (counter, amount) pairs."""

    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if count is not None:
            for key, amount in count(args, result):
                tracer.counts[key] += amount
        return result

    return wrapper


def _iterator(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        return _TracedIter(tracer, name, fn(*args, **kwargs))

    return wrapper


def _load_trace(tracer: Tracer, fn):
    def wrapper(path, fmt=None, *args, **kwargs):
        kind = fmt or ("jsonl" if str(path).endswith(".jsonl") else "binary")
        return _TracedIter(tracer, f"trace.load_{kind}", fn(path, fmt, *args, **kwargs))

    return wrapper


def _replay(tracer: Tracer, fn, store_type):
    takes_store = "store" in inspect.signature(fn).parameters

    def wrapper(records, *args, **kwargs):
        on_exhausted = None
        if takes_store and not args and kwargs.get("store") is None:
            store = kwargs["store"] = store_type()
            on_exhausted = lambda: tracer.gauge("trace.shadow_blocks", len(store))  # noqa: E731
        return _TracedIter(tracer, "trace.replay", fn(records, *args, **kwargs), on_exhausted)

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Wrap robinsim's layer entry points in spans for the duration of the block.

    A name that a later version of robinsim no longer has is skipped; its
    metrics then read 0.
    """
    from robinsim import injection, mapping, reliability, report, secded, trace

    def mc_block(fn):
        return _call(
            tracer, "injection.mc_block", fn,
            lambda args, result: (("injection.mc_record_trials", args[2].trials),),
        )

    def transition_vector(fn):
        return _call(tracer, "mapping.transition_vector", fn)

    wrappers = {
        (report, "run_experiment"): lambda fn: _call(tracer, "report.run_experiment", fn),
        (report, "emit_csv"): lambda fn: _call(tracer, "report.emit", fn),
        (report, "emit_svg"): lambda fn: _call(tracer, "report.emit", fn),
        (report, "gen_workload"): lambda fn: _iterator(tracer, "workloads.gen", fn),
        (report, "load_trace"): lambda fn: _load_trace(tracer, fn),
        (report, "old_new_pairs"): lambda fn: _replay(tracer, fn, trace.ShadowStore),
        (report, "blocks_to_bits"): lambda fn: _call(tracer, "bits.unpack", fn),
        (report, "stack_blocks"): lambda fn: _call(tracer, "bits.unpack", fn),
        (secded, "encode_words"): lambda fn: _call(
            tracer, "secded.encode_words", fn,
            lambda args, result: (("secded.words_encoded", int(np.size(args[0]))),),
        ),
        (reliability, "codeword_success_array"): lambda fn: _call(
            tracer, "reliability.closed_form", fn,
            lambda args, result: (("reliability.closed_form_evals", int(np.size(args[0]))),),
        ),
        (report, "monte_carlo_block"): mc_block,
        (injection, "monte_carlo_block"): mc_block,
        (injection, "inject_write"): lambda fn: _call(tracer, "injection.inject_write", fn),
        (injection, "end_to_end_check"): lambda fn: _call(
            tracer, "injection.crosscheck", fn,
            lambda args, result: (("crosscheck.checked", 1), ("crosscheck.agreed", int(result.agree))),
        ),
        (mapping, "transition_vector"): transition_vector,
        (trace, "transition_vector"): transition_vector,
        (reliability, "trace_error_rate"): lambda fn: _call(tracer, "reliability.trace_error_rate", fn),
        (trace, "codeword_stats"): lambda fn: _call(tracer, "trace.codeword_stats", fn),
    }
    saved = []
    made = {}   # one wrapper per function, however many modules import it
    try:
        for (module, attr), make in wrappers.items():
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if id(original) not in made:
                    made[id(original)] = make(original)
                setattr(module, attr, made[id(original)])
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Profile:
    """Per-layer totals folded from the spans of many traced operations."""

    def __init__(self) -> None:
        self.ops = 0
        self.self_ns: dict[str, int] = defaultdict(int)
        self.root_ns = 0
        self.last_spans: tuple[list, list] = ([], [])   # spans, and time inside each one's children

    def fold(self, tracer: Tracer) -> None:
        """Add one operation's spans (rooted at ROOT_SPAN) and clear them from the tracer."""
        spans = tracer.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, parent), inner in zip(spans, child_ns):
            self.self_ns[name] += end - start - inner
            if parent < 0:
                self.root_ns += end - start
        self.ops += 1
        self.last_spans = (spans, child_ns)
        tracer.spans = []

    def accounted_ns(self) -> int:
        """Sum of all self times; equals the root spans' total when nesting is sound."""
        return sum(self.self_ns.values())

    def write_spans(self, path: Path) -> None:
        """Write the last operation's spans as CSV, with each span's self time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="ascii") as handle:
            handle.write("id,parent,name,start_ns,end_ns,self_ns\n")
            for index, ((name, start, end, parent), inner) in enumerate(zip(*self.last_spans)):
                handle.write(f"{index},{parent},{name},{start},{end},{end - start - inner}\n")
