"""Outside-in span tracer for the antizeno package.

``Tracer.install()`` replaces every public function of the package in every
module namespace that holds it (so ``protocol.evolve`` is wrapped as well as
``dynamics.evolve``), plus ``__post_init__`` and the public methods of the
package's classes, with a wrapper that records a span. ``uninstall()``
restores the originals. Nothing in the package is edited; spans exist only
while installed.

Spans are aggregated on the fly per name: ``calls``, inclusive ``busy``
time (outermost occurrence of a name only, so nested or aliased spans are
not counted twice) and ``self`` time (span time minus the time of child
spans). Layer busy time is the time at least one span of the layer is open.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import time
import types
from collections import defaultdict

MODULES = (
    "cli", "config", "runner", "model", "numkit", "operators",
    "dynamics", "measurement", "protocol", "analysis", "errors",
)

# operators only assembles the matrices numkit works on
LAYER_OF = {"operators": "numkit"}

# Spans that share a name across functions, so one metric covers a job done
# by several entry points.
ALIASES = {
    "model.converge_cutoff": "model.cutoff_check",
    "model.assert_cutoff_converged": "model.cutoff_check",
    "analysis.fit_quadratic_origin": "analysis.fit",
    "analysis.fit_exponential": "analysis.fit",
    "analysis.collapse_slopes": "analysis.fit",
}


def _kind_of(value) -> str:
    return getattr(value, "kind", "other")


# Spans whose name depends on the state kind, so the pure and density paths
# are measured apart.
def _evolve_name(args, kwargs):
    state = args[1] if len(args) > 1 else kwargs["s"]
    return "dynamics.evolve." + _kind_of(state)


def _no_click_name(args, kwargs):
    state = args[0] if args else kwargs["s"]
    return "measurement.no_click." + _kind_of(state)


def _state_check_name(args, kwargs):
    return "dynamics.state_check." + _kind_of(args[0])


DYNAMIC_NAMES = {
    "dynamics.evolve": _evolve_name,
    "measurement.measure_no_click": _no_click_name,
    "dynamics.QuantumState.__post_init__": _state_check_name,
}


class _Stat:
    __slots__ = ("calls", "busy", "self", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module(f"antizeno.{name}") for name in MODULES]
        self.namespaces = [importlib.import_module("antizeno"), *self.modules]
        self._patches: list[tuple[object, str, object]] = []
        self._originals: set = set()
        self._stack: list[list] = []
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        self.spans: dict[str, _Stat] = defaultdict(_Stat)
        self.layers: dict[str, _Stat] = defaultdict(_Stat)
        self._stack.clear()
        self.eig_digests: set[bytes] = set()
        self.bytes_written = 0

    def _wrap(self, fn, name: str, hook=None):
        namer = DYNAMIC_NAMES.get(name)
        name = ALIASES.get(name, name)
        layer_name = name.split(".", 1)[0]
        layer_name = LAYER_OF.get(layer_name, layer_name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            span = self.spans[span_name]
            layer = self.layers[layer_name]
            span.depth += 1
            layer.depth += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span.depth -= 1
                layer.depth -= 1
                span.calls += 1
                span.self += elapsed - frame[0]
                if span.depth == 0:
                    span.busy += elapsed
                if layer.depth == 0:
                    layer.busy += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _eig_hook(self, args, result):
        matrix = args[0].matrix
        self.eig_digests.add(hashlib.blake2b(matrix.data, digest_size=16).digest())

    def _run_hook(self, args, result):
        self.bytes_written += sum(os.path.getsize(path) for path in result.paths)

    # -- installation ----------------------------------------------------

    def public_functions(self) -> dict:
        """Original public functions of the package, keyed by object, with
        their span names (``module.function``)."""
        found = {}
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    found[value] = f"{short}.{attr}"
        return found

    def public_classes(self) -> list[tuple[type, str]]:
        found = []
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if (
                    isinstance(value, type)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not issubclass(value, BaseException)
                ):
                    found.append((value, f"{short}.{attr}"))
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {"numkit.hermitian_eig": self._eig_hook, "runner.run": self._run_hook}
        wrappers = {
            fn: self._wrap(fn, name, hooks.get(name))
            for fn, name in self.public_functions().items()
        }
        self._originals = set(wrappers)
        for namespace in self.namespaces:
            for attr, value in list(vars(namespace).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patch(namespace, attr, wrappers[value])
        for cls, prefix in self.public_classes():
            for attr, raw in list(vars(cls).items()):
                if attr != "__post_init__" and attr.startswith("_"):
                    continue
                name = f"{prefix}.{attr}"
                if isinstance(raw, types.FunctionType):
                    self._patch(cls, attr, self._wrap(raw, name))
                elif isinstance(raw, (classmethod, staticmethod)):
                    self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, name)))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Module-level names that still hold an original public function
        while the tracer is installed; empty when coverage is complete."""
        missing = []
        for namespace in self.namespaces:
            for attr, value in vars(namespace).items():
                if isinstance(value, types.FunctionType) and value in self._originals:
                    missing.append(f"{namespace.__name__}.{attr}")
        return missing

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
