"""Probes the benchmark installs around the layers' public functions.

Two probes, both installed from the benchmark's own files and removed
when the run ends; the program itself is not changed:

* :class:`RunProbe` (always on) wraps only ``Cluster.run``, to stamp the
  end of each cell's set-up and keep the cluster for its counters.
* :class:`SpanRecorder` (``--trace 1``) wraps one public entry point per
  layer and records a span (name, start, end, parent) per call in
  memory; :func:`layer_times` turns them into inclusive and self time.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator, Optional

from repro.datatypes.base import Datatype
from repro.ib.memory import NodeMemory
from repro.mpi.world import Cluster

# by import path: ``repro.workloads`` re-exports functions that shadow
# its submodules of the same name
flatten_mod = importlib.import_module("repro.datatypes.flatten")
pack_mod = importlib.import_module("repro.datatypes.pack")
replay_mod = importlib.import_module("repro.workloads.replay")
validate_mod = importlib.import_module("repro.workloads.validate")

#: the layer a span belongs to is its name up to the first dot; spans
#: of the benchmark's own cell wrapper are the unattributed remainder
CELL_SPAN = "bench.cell"
#: the collection of a cell's garbage, which runs after the cell returns
GC_SPAN = "gc.collect"


class RunProbe:
    """Stamps the ``Cluster.run`` call of the cell being timed."""

    def __init__(self) -> None:
        self.run_ns: Optional[int] = None
        self.cluster: Optional[Cluster] = None

    def reset(self) -> None:
        self.run_ns = None
        self.cluster = None

    def wrap_run(self, run: Callable) -> Callable:
        def probed_run(cluster, *args, **kwargs):
            self.run_ns = perf_counter_ns()
            self.cluster = cluster
            return run(cluster, *args, **kwargs)

        return probed_run


class SpanRecorder:
    """In-memory spans: ``[name, start_ns, end_ns, parent index]``."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        #: ``layout_cache_get`` lookups and hits
        self.memo_lookups = 0
        self.memo_hits = 0
        #: bytes moved by ``gather_blocks``/``scatter_blocks``
        self.gather_scatter_bytes = 0
        #: ``QP.posted_recvs`` summed over every QP right after MPI_Init
        self.init_recv_wrs = 0

    def span(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            entry = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(idx)
            entry[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                entry[2] = perf_counter_ns()
                stack.pop()
                spans[idx] = entry

        return traced

    def wrap_init(self, init: Callable) -> Callable:
        traced = self.span("mpi.init", init)

        def init_counted(cluster, *args, **kwargs):
            traced(cluster, *args, **kwargs)
            self.init_recv_wrs += sum(
                qp.posted_recvs
                for ctx in cluster.contexts
                for qps in (ctx.data_qps, ctx.ctrl_qps)
                for qp in qps.values()
            )

        return init_counted

    def wrap_memo(self, get: Callable) -> Callable:
        def counted_get(key):
            flat = get(key)
            self.memo_lookups += 1
            self.memo_hits += flat is not None
            return flat

        return counted_get

    def wrap_copy(self, copy: Callable) -> Callable:
        traced = self.span("ib.gather_scatter", copy)

        def counted_copy(*args, **kwargs):
            nbytes = traced(*args, **kwargs)
            self.gather_scatter_bytes += nbytes
            return nbytes

        return counted_copy


@contextmanager
def _patched(patches: list) -> Iterator[None]:
    """Set ``(owner, attribute, value)`` for the duration, then restore."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _rebind_everywhere(fn: Callable, wrapper: Callable) -> list:
    """Patches replacing ``fn`` in every loaded ``repro`` module that
    imported it by name (``from m import fn`` binds a module global)."""
    return [
        (module, attr, wrapper)
        for name, module in list(sys.modules.items())
        if name.startswith("repro") and module is not None
        for attr, value in list(vars(module).items())
        if value is fn
    ]


@contextmanager
def probes(run_probe: RunProbe, recorder: Optional[SpanRecorder]) -> Iterator[None]:
    """Install the run probe and, when given, the span recorder."""
    if recorder is None:
        with _patched([(Cluster, "run", run_probe.wrap_run(Cluster.run))]):
            yield
        return
    rec = recorder
    patches = [
        (Cluster, "__init__", rec.wrap_init(Cluster.__init__)),
        (Cluster, "run", run_probe.wrap_run(rec.span("simulator.run", Cluster.run))),
        (Datatype, "flatten", rec.span("datatypes.flatten", Datatype.flatten)),
        (NodeMemory, "gather_blocks", rec.wrap_copy(NodeMemory.gather_blocks)),
        (NodeMemory, "scatter_blocks", rec.wrap_copy(NodeMemory.scatter_blocks)),
        (flatten_mod, "layout_cache_get", rec.wrap_memo(flatten_mod.layout_cache_get)),
    ]
    for fn, name in (
        (pack_mod.pack_bytes, "datatypes.pack"),
        (pack_mod.unpack_bytes, "datatypes.pack"),
        (validate_mod.validate, "workloads.validate"),
        (replay_mod.digest_buffers, "workloads.digest"),
    ):
        patches += _rebind_everywhere(fn, rec.span(name, fn))
    with _patched(patches):
        yield


def layer_times(spans: list) -> dict:
    """Seconds per span name and per layer from one pass's spans.

    Returns ``{"inclusive": {name: s}, "self": {layer: s}, "count":
    {name: n}}``.  Inclusive time counts only the outermost span of a
    name (``flatten`` recurses into member types); self time is a
    span's duration minus the part its child spans cover, summed per
    layer, with the cell wrapper's self time as ``unattributed``.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    inclusive: dict = {}
    self_ns: dict = {}
    count: dict = {}
    for (name, start, end, parent), children in zip(spans, child_ns):
        dur = end - start
        count[name] = count.get(name, 0) + 1
        if parent < 0 or spans[parent][0] != name:
            inclusive[name] = inclusive.get(name, 0) + dur
        layer = "unattributed" if name == CELL_SPAN else name.split(".")[0]
        self_ns[layer] = self_ns.get(layer, 0) + dur - children
    return {
        "inclusive": {k: v / 1e9 for k, v in inclusive.items()},
        "self": {k: v / 1e9 for k, v in self_ns.items()},
        "count": count,
    }
