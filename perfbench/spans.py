"""Timing spans around the public functions of each adlv layer.

The tracer patches the functions listed in LAYERS (and every ``check_*``
function of ``adlv.audit``) in every loaded ``adlv`` module that refers to
them, and restores the originals on ``uninstall``.  Nothing in ``src/`` is
changed.  A span records calls, inclusive time and self time (its duration
minus the time of the spans it encloses).  A name that no longer resolves is
reported as missing, not raised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

# metric prefix -> (module, attribute path, end-to-end metric it should move)
LAYERS = {
    "cartan.RootSystem.from_descriptor": (
        "adlv.cartan", "RootSystem.from_descriptor", "setup_s on every workload (watch only)"),
    "weyl.enumerate_w0": ("adlv.weyl", "enumerate_w0", "setup_s on wide"),
    "iwahori.omega_elements": ("adlv.iwahori", "omega_elements", "setup_s on wide"),
    "iwahori.affine_sigma_support": (
        "adlv.iwahori", "affine_sigma_support",
        "op_p50_ms/op_p90_ms on long; ops_per_s on sweep"),
    "iwahori.kottwitz": ("adlv.iwahori", "kottwitz", "ops_per_s on sweep"),
    "iwahori.enumerate_affine": ("adlv.iwahori", "enumerate_affine", "ops_per_s on sweep"),
    "alcove.AlcoveProfile.build": ("adlv.alcove", "AlcoveProfile.build", "ops_per_s on sweep"),
    "alcove.AlcoveProfile.w_x": ("adlv.alcove", "AlcoveProfile.w_x", "ops_per_s on sweep"),
    "criterion.decide_nonempty": (
        "adlv.criterion", "decide_nonempty", "ops_per_s on sweep; op_p50_ms on wide"),
    "criterion.oracle_nonempty": (
        "adlv.criterion", "oracle_nonempty", "ops_per_s on sweep; op_p50_ms on wide"),
    "notation.parse_affine": (
        "adlv.notation", "parse_affine", "ops_per_s on sweep; op_p50_ms on long"),
    "notation.format_affine": (
        "adlv.notation", "format_affine", "ops_per_s on sweep; op_p50_ms on long"),
    "cli.enumerate_rows": (
        "adlv.cli", "enumerate_rows", "ops_per_s on sweep (row glue, reparse, re-sort)"),
    "cli.rows_to_csv": ("adlv.cli", "rows_to_csv", "ops_per_s on sweep"),
    "cli.verdict_json": ("adlv.cli", "verdict_json", "op_p50_ms on long"),
}

AUDIT_MODULE = "adlv.audit"


class Tracer:
    """Aggregated spans: name -> [calls, inclusive seconds, self seconds]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.observed: dict[str, list] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> tuple[list[float], float]:
        frame = [0.0]
        self._stack.append(frame)
        self._depth[name] = self._depth.get(name, 0) + 1
        return frame, perf_counter()

    def _close(self, name: str, frame: list[float], start: float, count: bool) -> None:
        elapsed = perf_counter() - start
        self._stack.pop()
        depth = self._depth[name] - 1
        self._depth[name] = depth
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        if count:
            entry[0] += 1
        if depth == 0:
            entry[1] += elapsed
        entry[2] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn under a span named name (used for the harness's root spans)."""
        frame, start = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, frame, start, True)

    def wrap(self, name: str, fn, observe=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start, True)
            if observe is not None:
                self.observed.setdefault(name, []).append(observe(args, kwargs, result))
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Each resumption of the generator is a span; one call per invocation."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = True
            while True:
                frame, start = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(name, frame, start, first)
                    first = False
                yield item

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self, observers: dict | None = None) -> None:
        observers = observers or {}
        for prefix, (module_name, path, _) in LAYERS.items():
            if not self._install_one(prefix, module_name, path, observers.get(prefix)):
                self.missing.append(prefix)
        try:
            audit = importlib.import_module(AUDIT_MODULE)
        except ImportError:
            self.missing.append(AUDIT_MODULE)
            return
        for attr, fn in vars(audit).items():
            if attr.startswith("check_") and inspect.isfunction(fn):
                self._replace_everywhere(fn, self.wrap(f"audit.{attr}", fn, _check_id))

    def _install_one(self, prefix, module_name, path, observe) -> bool:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if inspect.isclass(owner):
            raw = owner.__dict__.get(attr)
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self.wrap(prefix, raw.__func__, observe)))
                return True
            if isinstance(raw, functools.cached_property):
                prop = functools.cached_property(self.wrap(prefix, raw.func, observe))
                prop.__set_name__(owner, attr)
                self._patch(owner, attr, prop)
                return True
            return False
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        self._replace_everywhere(original, self.wrap(prefix, original, observe))
        return True

    def _replace_everywhere(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "adlv" or module_name.startswith("adlv.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _check_id(args, kwargs, result) -> str:
    return getattr(result, "check_id", "?")
