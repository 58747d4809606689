"""Span tracing by wrapping the public functions of each layer from outside.

A :class:`Tracer` records one span per wrapped call made inside a
benchmark operation -- name, start, end, parent and op id -- and counts
calls at the same points.  Spans of one
benchmark operation are kept in memory until the operation ends; their
self times are then folded into per-name totals, and the spans of the
first few operations are kept for the trace file written at the end.

:class:`Patcher` installs the wrappers and takes them out again.  A
function is replaced under every name it is bound to in every loaded
module (``os.fsync`` as well as a ``from os import fsync`` alias), and
:meth:`Patcher.check_restored` proves that no wrapper survives removal.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

#: One span: [name, start_ns, end_ns, parent index or -1, op id].
Span = List[Any]

SpanName = Union[str, Callable[[tuple], str]]
Observer = Callable[["Tracer", tuple, dict, Any], None]
Before = Callable[["Tracer", tuple, dict], Tuple[tuple, dict]]


def layer_of(name: str) -> str:
    """``store.put`` -> ``store``; the layer is the first name component."""
    return name.split(".", 1)[0]


def self_times(spans: Sequence[Span]) -> List[int]:
    """Self time of each span: its duration minus what its children cover.

    Children are the spans whose parent index points at it; overlapping
    children are merged first and clipped to the parent's interval, so a
    covered nanosecond is subtracted once.
    """
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


class Tracer:
    """Collects spans per benchmark operation and aggregates them."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns, keep_ops: int = 32):
        self.clock = clock
        self.keep_ops = keep_ops
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.op_id = 0
        #: Calls per span name, counted in the wrapper.
        self.calls: Dict[str, int] = defaultdict(int)
        #: Calls whose parent span belongs to another layer.
        self.outer_calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: Named quantities the wrappers observe (entries chunked, ...).
        self.values: Dict[str, float] = defaultdict(float)
        #: Per op kind: [ops, root wall ns, summed layer self ns].
        self.kinds: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        self.kept: List[Span] = []
        self.in_op = False

    def wrap(
        self,
        fn: Callable[..., Any],
        name: SpanName,
        observe: Optional[Observer] = None,
        before: Optional[Before] = None,
    ) -> Callable[..., Any]:
        """A wrapper that records a span around each call of ``fn``.

        ``name`` is the span name, or a function of the call's positional
        arguments that returns it.  ``observe`` sees each call's result;
        ``before`` may replace the arguments once the span is open.
        """
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{fn!r}: a generator's span would end before its work")
        tracer = self
        clock = self.clock
        calls = self.calls
        fixed = name if isinstance(name, str) else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.in_op:  # the benchmark's own checks between ops
                return fn(*args, **kwargs)
            span_name = fixed if fixed is not None else name(args)  # type: ignore[operator]
            calls[span_name] += 1
            spans = tracer.spans
            stack = tracer.stack
            record = [span_name, 0, 0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(spans))
            spans.append(record)
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def begin_op(self, kind: str) -> None:
        """Open the root span of one benchmark operation."""
        self.in_op = True
        self.op_id += 1
        self.stack = [0]
        self.spans.append([kind, 0, 0, -1, self.op_id])
        self.spans[0][1] = self.clock()

    def end_op(self) -> None:
        """Close the root span and fold the operation's spans into totals."""
        spans = self.spans
        spans[0][2] = self.clock()
        self.in_op = False
        self.stack = []
        selfs = self_times(spans)
        kind = spans[0][0]
        totals = self.kinds[kind]
        totals[0] += 1
        totals[1] += spans[0][2] - spans[0][1]
        totals[2] += sum(selfs[1:])
        for index in range(1, len(spans)):
            name = spans[index][0]
            self.self_ns[name] += selfs[index]
            parent = spans[index][3]
            if parent <= 0 or layer_of(spans[parent][0]) != layer_of(name):
                self.outer_calls[name] += 1
        if self.op_id <= self.keep_ops:
            self.kept.extend(spans)
        self.spans = []

    def self_sum_gaps(self) -> Dict[str, float]:
        """Per op kind: |sum of layer self times - root wall| / root wall."""
        return {
            kind: abs(wall - layer) / wall if wall else 0.0
            for kind, (_ops, wall, layer) in self.kinds.items()
        }

    def dump(self) -> Dict[str, object]:
        """The spans kept plus every aggregate, as JSON-ready data."""
        return {
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
            "spans": self.kept,
            "calls": dict(self.calls),
            "outer_calls": dict(self.outer_calls),
            "self_ns": dict(self.self_ns),
            "values": dict(self.values),
            "kinds": {kind: list(v) for kind, v in self.kinds.items()},
        }


def import_package(package: str) -> None:
    """Import every submodule, so no later import binds a wrapper by name."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)


#: A trace point: (owner, attribute, span name, observer or None[, before
#: hook]).  The owner is ``"module"`` or ``"module:Class"``.
Point = Tuple[Any, ...]


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Patcher:
    """Installs tracer wrappers at trace points and restores the originals."""

    _ABSENT = object()

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: (namespace owner, attribute, original value or _ABSENT)
        self._undo: List[Tuple[Any, str, Any]] = []
        self._wrappers: List[Callable[..., Any]] = []
        self._owners: List[Any] = []

    def install(self, points: Sequence[Point]) -> None:
        for owner, attr, name, *hooks in points:
            target = _resolve(owner)
            if inspect.isclass(target):
                self._patch_class(target, attr, name, hooks)
            else:
                self._patch_function(target, attr, name, hooks)

    def _wrap(self, fn: Callable[..., Any], name: SpanName, hooks: Any) -> Callable[..., Any]:
        wrapper = self.tracer.wrap(fn, name, *hooks)
        self._wrappers.append(wrapper)
        return wrapper

    def _patch_class(self, cls: type, attr: str, name: SpanName, hooks: Any) -> None:
        raw = inspect.getattr_static(cls, attr)
        original = cls.__dict__.get(attr, self._ABSENT)
        patched: Any
        if isinstance(raw, staticmethod):
            patched = staticmethod(self._wrap(raw.__func__, name, hooks))
        elif isinstance(raw, classmethod):
            patched = classmethod(self._wrap(raw.__func__, name, hooks))
        else:
            patched = self._wrap(raw, name, hooks)
        self._undo.append((cls, attr, original))
        self._owners.append(cls)
        setattr(cls, attr, patched)

    def _patch_function(self, module: Any, attr: str, name: SpanName, hooks: Any) -> None:
        original = getattr(module, attr)
        patched = self._wrap(original, name, hooks)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((loaded, key, original))
                    setattr(loaded, key, patched)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is self._ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def leftover_wrappers(self) -> List[str]:
        """Every name, in a loaded module or a traced class, still bound to a wrapper."""
        wrappers = {id(wrapper) for wrapper in self._wrappers}
        found = []
        namespaces = [(getattr(m, "__name__", "?"), getattr(m, "__dict__", None))
                      for m in list(sys.modules.values())]
        namespaces += [(cls.__qualname__, cls.__dict__) for cls in self._owners]
        for label, namespace in namespaces:
            if namespace is None:
                continue
            for key, value in list(namespace.items()):
                if isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                if id(value) in wrappers:
                    found.append(f"{label}.{key}")
        return found

    def check_restored(self) -> None:
        """Raise unless every wrapper this patcher installed is gone."""
        leftover = self.leftover_wrappers()
        if leftover or self._undo:
            raise RuntimeError(f"tracing wrappers still installed: {leftover}")
