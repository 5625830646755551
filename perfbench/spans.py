"""Per-layer spans for the traced run, recorded from outside the library.

The tracer wraps chorcheck's public functions where their callers look them
up (for example both `chorcheck.cli.generate_lts` and
`chorcheck.semantics.generate_lts`), so no file under `src/` changes.  A span
entered directly inside a span of the same layer is folded into it, which
keeps `saturate` and the `WeakLts` constructor it calls from counting twice.  A
name that no longer exists is reported as absent and skipped, so the traced
run survives refactors that drop or rename a wrapped function.

Size counters are read from the values the wrapped functions return, as each
span closes.  The time spent counting is excluded from every open span and
reported in `paused_s`, so counting adds to no span and to no call time; and
no returned value is held longer than the program holds it.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

ROOT = "cli"

# Layer -> the places its functions are looked up, as "module:attribute.path".
SITES = {
    "text_syntax.parse": [
        "chorcheck.cli:parse_choreography",
        "chorcheck.cli:parse_collaboration",
        "chorcheck.cli:parse_process",
        "chorcheck.text_syntax:parse_choreography",
        "chorcheck.text_syntax:parse_collaboration",
        "chorcheck.text_syntax:parse_process",
    ],
    "bpmn_xml.load": [
        "chorcheck.bpmn_xml:BpmnDocument.from_path",
        "chorcheck.cli:load_choreography",
        "chorcheck.cli:load_collaboration",
        "chorcheck.bpmn_xml:load_choreography",
        "chorcheck.bpmn_xml:load_collaboration",
        "chorcheck.bpmn_xml:load_process",
    ],
    "composition.compose": [
        "chorcheck.cli:compose",
        "chorcheck.cli:well_composed",
        "chorcheck.composition:compose",
        "chorcheck.composition:well_composed",
    ],
    "semantics.generate_lts": [
        "chorcheck.cli:generate_lts",
        "chorcheck.semantics:generate_lts",
    ],
    "semantics.hide": [
        "chorcheck.cli:hiding_set",
        "chorcheck.conformance:hide",
        "chorcheck.semantics:hide",
    ],
    "conformance.saturate": [
        "chorcheck.conformance:saturate",
        "chorcheck.conformance:WeakLts.__init__",
    ],
    "conformance.check_tbc": [
        "chorcheck.cli:check_tbc",
        "chorcheck.conformance:check_tbc",
    ],
    "conformance.check_bbc": [
        "chorcheck.cli:check_bbc",
        "chorcheck.conformance:check_bbc",
    ],
    "conformance.export_aut": [
        "chorcheck.cli:export_aut",
        "chorcheck.conformance:export_aut",
    ],
}


def _resolve(site: str):
    """Return (owner, attribute name) for a site, or None if it is gone."""
    module_name, path = site.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # On a class, only patch what the class itself defines, so that restoring
    # the original never shadows an inherited attribute.
    if name not in vars(owner):
        return None
    return owner, name


class Tracer:
    """Collects per-layer self time and size counters over traced CLI calls."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[list] = []  # [layer, time covered by child spans, start]
        self.paused_s = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer: str) -> list:
        frame = [layer, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list):
        elapsed = perf_counter() - frame[2]
        self._stack.pop()
        layer = frame[0]
        self.self_s[layer] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def call(self, fn, *args):
        """Run `fn(*args)` inside the root span."""
        frame = self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            self._count(layer, args, result)
            return result

        return wrapper

    # -- installing wrappers -------------------------------------------------

    def install(self):
        """Wrap every site that exists; remember the ones that do not."""
        self.absent = []
        for layer, sites in SITES.items():
            for site in sites:
                found = _resolve(site)
                if found is None:
                    self.absent.append(site)
                    continue
                owner, name = found
                raw = vars(owner)[name]
                self._patched.append((owner, name, raw))
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = staticmethod(self._wrap(layer, getattr(owner, name)))
                else:
                    wrapped = self._wrap(layer, raw)
                setattr(owner, name, wrapped)

    def uninstall(self):
        while self._patched:
            owner, name, raw = self._patched.pop()
            setattr(owner, name, raw)

    # -- counters ------------------------------------------------------------

    def _count(self, layer: str, args: tuple, result):
        """Read size counters off one returned value, outside every span."""
        start = perf_counter()
        try:
            self._count_one(layer, args, result)
        except AttributeError as err:  # the returned type changed shape
            self.uncounted.add(f"{layer}: {err}")
        paused = perf_counter() - start
        self.paused_s += paused
        if self._stack:
            self._stack[-1][1] += paused

    def _count_one(self, layer: str, args: tuple, result):
        from chorcheck.model import TAU

        counts = self.counts
        if layer == "text_syntax.parse":
            counts["text_syntax.calls"] += 1
        elif layer == "semantics.generate_lts":
            counts["semantics.states"] += result.n_states
            counts["semantics.transitions"] += len(result.transitions)
        elif layer == "semantics.hide" and hasattr(result, "transitions"):
            counts["semantics.tau_transitions"] += sum(
                1 for _, label, _ in result.transitions if label == TAU
            )
        elif layer == "conformance.saturate":
            weak = result if result is not None else args[0]  # saturate or __init__
            counts["conformance.saturate_calls"] += 1
            states = range(weak.n_states)
            counts["conformance.closure_pairs"] += sum(len(weak.closure(s)) for s in states)
            counts["conformance.weak_transitions"] += sum(
                len(weak.weak_succ(s, label)) for label in weak.alphabet for s in states
            )
        elif layer.startswith("conformance.check_"):
            ce = result.counterexample
            if ce is not None:
                counts["conformance.counterexample_len"] += (
                    len(ce.labels) if hasattr(ce, "labels") else len(ce.path) + 1
                )
        elif layer == "conformance.export_aut":
            counts["conformance.aut_bytes"] += len(result)
