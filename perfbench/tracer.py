"""Span tracing around the program's public layer functions.

The tracer patches, from outside the program, the functions each layer
exposes -- at every ``repro`` module attribute that is bound to them, so
call sites that imported a name at import time are covered too -- and
records one span per call: name, start, end, parent span and request
id.  Spans stay in memory; :meth:`Tracer.write` dumps them as JSON
lines.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, function) pairs patched wherever a repro module binds them.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.registry", "default_registry", "registry.build"),
    ("repro.backend.native_exec", "native_available", "native.available"),
    ("repro.eval.runner", "partition_for", "fusion.partition"),
    ("repro.model.benefit", "estimate_graph", "model.benefit"),
    ("repro.fusion.mincut_fusion", "mincut_fusion", "fusion.mincut"),
    ("repro.backend.plan", "plan_for_partition", "plan.build"),
    ("repro.backend.native_exec", "native_plan_for_partition", "native.plan"),
    ("repro.backend.native_exec", "_lower_block", "native.lower"),
    ("repro.backend.cpu_exec", "compile_shared_library", "cc.compile"),
)

#: (module, class, method) triples patched on the class.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.serve.registry", "PipelineEntry", "graph", "registry.graph"),
    ("repro.backend.plan", "PartitionPlan", "execute", "plan.exec"),
    ("repro.backend.plan", "BlockPlan", "execute", "plan.block_exec"),
    ("repro.backend.native_exec", "NativePartitionPlan", "execute", "native.exec"),
    ("repro.backend.native_exec", "NativeBlock", "execute", "native.block_exec"),
)

#: Construction counters (no span): a new plan object is a plan build,
#: and a graph constructed inside a registry lookup is a graph build.
CONSTRUCTORS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("repro.backend.plan", "PartitionPlan", "plan.builds", None),
    ("repro.backend.native_exec", "NativePartitionPlan", "native.builds", None),
    ("repro.graph.dag", "KernelGraph", "registry.graphs_built", "registry.graph"),
)

#: Span layout: (name, start, end, parent index, request id, thread id).
Span = List[Any]


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.requests: Dict[int, Any] = {}  # id(inputs dict) -> request id
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: Any) -> None:
        """Tag spans opened on this thread (outside any span) with ``request``."""
        self._local.request = request

    def _open(self, name: str, request: Any = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = (
                self.spans[parent][4]
                if parent is not None
                else getattr(self._local, "request", None)
            )
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, request, threading.get_ident()])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, request: Any = None) -> Iterator[None]:
        """One span around the benchmark's own call."""
        index = self._open(name, request)
        try:
            yield
        finally:
            self._close(index)

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        counts = self.counts

        if name == "native.exec":
            # Serving runs plans on worker threads: the bound inputs dict
            # identifies the request that submitted it.
            @functools.wraps(fn)
            def wrapper(self, inputs, *args, **kwargs):
                index = tracer._open(name, tracer.requests.get(id(inputs)))
                try:
                    return fn(self, inputs, *args, **kwargs)
                finally:
                    tracer._close(index)

            return wrapper

        if name == "native.block_exec":

            @functools.wraps(fn)
            def wrapper(self, arrays, *args, **kwargs):
                index = tracer._open(name)
                try:
                    out = fn(self, arrays, *args, **kwargs)
                finally:
                    tracer._close(index)
                moved = out.nbytes + sum(
                    arrays[image].nbytes
                    for image in self.spec.images
                    if image in arrays
                )
                counts["native.block_bytes"] += moved
                tracer.spans[index].append(self.output_name)
                return out

            return wrapper

        if name == "plan.block_exec":

            @functools.wraps(fn)
            def wrapper(self, *args, **kwargs):
                counts["plan.tape_instrs"] += len(self.tape)
                index = tracer._open(name)
                try:
                    return fn(self, *args, **kwargs)
                finally:
                    tracer._close(index)

            return wrapper

        if name == "cc.compile":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = tracer._open(name)
                try:
                    path, cached = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                if not cached:
                    counts["native.cc_compiles"] += 1
                return path, cached

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    def _count_init(self, counter: str, init: Callable, within: Optional[str]) -> Callable:
        tracer = self
        counts = self.counts

        @functools.wraps(init)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if within is None or (stack and tracer.spans[stack[-1]][0] == within):
                counts[counter] += 1
            return init(*args, **kwargs)

        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        for module_name, fn_name, span_name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), fn_name)
            wrapper = self._wrap(span_name, original)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                if getattr(module, fn_name, None) is original:
                    self._patch(module, fn_name, wrapper)
        for module_name, cls_name, meth, span_name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, meth, self._wrap(span_name, getattr(cls, meth)))
        for module_name, cls_name, counter, within in CONSTRUCTORS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, "__init__", self._count_init(counter, cls.__init__, within))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------------

    def child_seconds(self) -> List[float]:
        """Per span: the seconds its direct children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None and span[2] is not None:
                child[span[3]] += span[2] - span[1]
        return child

    def durations(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """Per span name: inclusive seconds, self seconds, call count.

        Self time is a span's duration minus the part its children (on
        the same thread, hence nested) cover.
        """
        child = self.child_seconds()
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for index, span in enumerate(self.spans):
            if span[2] is None:
                continue
            duration = span[2] - span[1]
            total[span[0]] += duration
            own[span[0]] += duration - child[index]
            calls[span[0]] += 1
        return dict(total), dict(own), dict(calls)

    def children_of(self, roots: str) -> Dict[str, float]:
        """Seconds in each direct child layer of the ``roots`` spans."""
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            parent = span[3]
            if parent is not None and self.spans[parent][0] == roots and span[2] is not None:
                out[span[0]] += span[2] - span[1]
        return dict(out)

    def write(self, path, summary: Optional[dict] = None) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span[0],
                    "start_us": round((span[1] - origin) * 1e6, 1),
                    "end_us": None if span[2] is None else round((span[2] - origin) * 1e6, 1),
                    "parent": span[3],
                    "request": span[4],
                    "thread": span[5],
                }
                if len(span) > 6:
                    record["block"] = span[6]
                fh.write(json.dumps(record) + "\n")
            if summary is not None:
                fh.write(json.dumps({"summary": summary}) + "\n")
