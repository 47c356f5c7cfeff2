"""Layer tracer for the spinlev modules, applied from outside the package.

`Tracer.install` wraps every public function of the eight code modules and
rebinds each `spinlev.*` module attribute that holds the same function
object, so calls through re-exports (`sensing.to_natural`, `cli.to_natural`,
the names in `spinlev/__init__.py`) are counted too. `verify.ALL_CHECKS` is
rebuilt from the wrapped checks, because `run_checks` iterates that tuple.

Every call is aggregated in place as a count, self time (duration minus the
wrapped calls it made) and an error count. Spans (name, start, end, parent,
request id) are kept in memory for requests and for layer entries, i.e.
calls whose caller is the benchmark or another module, up to `max_spans`;
calls within one module, such as `violation_scan` -> `thermal_wb`, are
aggregated only, which keeps memory bounded on the hot closed forms.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "units", "pulses", "sensing", "witness", "dynamics", "oracle", "verify")


class _Frame:
    __slots__ = ("module", "span_id", "child_s", "rolled_s")

    def __init__(self, module, span_id):
        self.module = module
        self.span_id = span_id
        self.child_s = 0.0  # time of wrapped calls made from this frame
        self.rolled_s = 0.0  # self time of same-module callees below this frame


class Tracer:
    max_spans = 100_000

    def __init__(self):
        self.active = False
        # "<layer>.<function>" -> [calls, self_s, errors, entry_self_s]
        self.stats: dict[str, list] = {}
        self.check_s: dict[str, float] = {}
        self.evolve_segments = 0
        self.evolve_forced_s = 0.0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.request_id = None
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(package.__name__ + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapped[id(val)])
        verify = importlib.import_module(f"{package.__name__}.verify")
        self._restore.append((verify, "ALL_CHECKS", verify.ALL_CHECKS))
        verify.ALL_CHECKS = tuple(wrapped[id(fn)] for fn in verify.ALL_CHECKS)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def _wrap(self, fn, name, layer):
        stats = self.stats.setdefault(name, [0, 0.0, 0, 0.0])
        on_done = None
        if layer == "verify" and name.startswith("verify.check_"):
            on_done = self._on_check
        elif name == "oracle.evolve":
            on_done = self._on_evolve(inspect.signature(fn))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else None
            entry = parent is None or parent.module != layer
            span_id = parent.span_id if parent is not None else None
            record = entry and len(self.spans) < self.max_spans
            if entry and not record:
                self.spans_dropped += 1
            if record:
                self._next_id += 1
                span_id = self._next_id
            frame = _Frame(layer, span_id)
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                stats[2] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame.child_s
                stats[0] += 1
                stats[1] += own
                if parent is not None:
                    parent.child_s += dur
                if entry:
                    stats[3] += own + frame.rolled_s
                else:
                    parent.rolled_s += own + frame.rolled_s
                if record:
                    self.spans.append((span_id, name, t0, t1,
                                       parent.span_id if parent is not None else None,
                                       self.request_id))
                if on_done is not None:
                    on_done(args, kwargs, result, dur)

        return wrapper

    def _on_check(self, args, kwargs, result, dur):
        if isinstance(result, dict) and "check_name" in result:
            key = result["check_name"]
            self.check_s[key] = self.check_s.get(key, 0.0) + dur

    def _on_evolve(self, sig):
        def done(args, kwargs, result, dur):
            bound = sig.bind(*args, **kwargs)
            seq = bound.arguments["seq"]
            self.evolve_segments += len(seq.pulse_times) + 1
            if bound.arguments.get("force") is not None:
                self.evolve_forced_s += dur
        return done

    # -- requests -----------------------------------------------------------

    def request(self, request_id, name: str):
        return _RequestSpan(self, request_id, name)

    # -- output -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def errors(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0])[2]

    def entry_self_s(self, name: str) -> float:
        """Self time of `name` plus that of the same-module calls under it."""
        return self.stats.get(name, [0, 0.0, 0, 0.0])[3]

    def layer_self_s(self, layer: str) -> float:
        return sum(s[1] for name, s in self.stats.items() if name.split(".", 1)[0] == layer)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "name", "start_s", "end_s", "parent", "request"],
                "spans_dropped": self.spans_dropped,
                "spans": self.spans,
            }, fh)


class _RequestSpan:
    """Root span of one benchmark request; layer calls inside are its children."""

    def __init__(self, tracer: Tracer, request_id, name: str):
        self.tracer = tracer
        self.request_id = request_id
        self.name = name

    def __enter__(self):
        tr = self.tracer
        tr.request_id = self.request_id
        if not tr.active:
            return self
        tr._next_id += 1
        self.frame = _Frame("request", tr._next_id)
        tr._stack.append(self.frame)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        if tr.active:
            t1 = perf_counter()
            tr._stack.pop()
            if len(tr.spans) < tr.max_spans:
                tr.spans.append((self.frame.span_id, self.name, self.t0, t1, None, self.request_id))
            else:
                tr.spans_dropped += 1
        tr.request_id = None
        return False
