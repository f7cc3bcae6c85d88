"""In-memory span recorder for the traced benchmark run.

The recorder wraps public ergolab functions by replacing their module
attributes, so calls made through the module (``rankone.level_correlation``)
and calls between functions of one module (which look their callees up in
the module globals) both pass through the wrapper.  Nothing in ``src/`` is
changed; ``uninstall`` puts the original functions back.

A span is ``(layer, name, start, end, parent, qid)`` with times from
``time.monotonic`` (CLOCK_MONOTONIC, comparable across processes on one
machine), ``parent`` the index of the enclosing span or -1, and ``qid`` the
id of the query that caused it (-1 during set-up).
"""

from __future__ import annotations

import statistics
import time
import weakref

# the public functions whose calls are recorded, by layer (module name)
LAYER_FUNCS = {
    "skew": ("spectral_coefficient", "skew_correlation", "rigidity_sequence"),
    "rankone": ("level_correlation", "correlation_count", "rigidity_scan", "weak_limit_estimate"),
    "substitution": ("perron", "pair_substitution", "block_frequencies", "fixed_point_prefix",
                     "empirical_correlation"),
    "spectral": ("wiener_discrete_mass", "rajchman_probe", "translation_probe",
                 "singularity_certificate"),
}
# the ergolab.cli builders a query calls: the cli layer
REPORT_BUILDERS = ("report_subst_analyze", "report_subst_correlate", "report_rankone_heights",
                   "report_rankone_correlate", "report_rankone_weaklimit", "report_rankone_rigidity",
                   "report_skew_correlate", "report_skew_spectrum", "report_skew_rigidity",
                   "report_spectral_wiener", "report_spectral_rajchman", "report_spectral_translate",
                   "report_spectral_beurling", "report_spectral_certify")
LAYERS = ("cli", "substitution", "rankone", "skew", "spectral")
CLI_METRICS = ("startup_s", "report_s", "emit_s", "process_s", "report_bytes")


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.qid = -1
        self.first_skew: list[int] = []  # span indices of the first skew call per system
        self._stack: list[int] = []
        self._seen_systems = weakref.WeakSet()
        self._installed: list = []

    def _wrap(self, module, name: str, layer: str):
        fn = getattr(module, name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            if layer == "skew":
                system = args[-1] if args else kwargs.get("sys")
                if system is not None and system not in self._seen_systems:
                    self._seen_systems.add(system)
                    self.first_skew.append(idx)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                spans[idx] = (layer, name, start, end, parent, self.qid)

        traced.__wrapped__ = fn
        setattr(module, name, traced)
        self._installed.append((module, name, fn))

    def install(self, cli_functions=()) -> None:
        """Wrap every listed layer function, plus the given ergolab.cli names."""
        import ergolab.cli
        import ergolab.rankone
        import ergolab.skew
        import ergolab.spectral
        import ergolab.substitution

        modules = {"skew": ergolab.skew, "rankone": ergolab.rankone,
                   "substitution": ergolab.substitution, "spectral": ergolab.spectral}
        for layer, names in LAYER_FUNCS.items():
            for name in names:
                self._wrap(modules[layer], name, layer)
        for name in cli_functions:
            self._wrap(ergolab.cli, name, "cli")

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._installed):
            setattr(module, name, fn)
        self._installed.clear()

    def begin(self, layer: str, name: str) -> int:
        """Open a span by hand; close it with ``end``."""
        idx = len(self.spans)
        self.spans.append((layer, name, time.monotonic(), None,
                           self._stack[-1] if self._stack else -1, self.qid))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        layer, name, start, _, parent, qid = self.spans[idx]
        self.spans[idx] = (layer, name, start, time.monotonic(), parent, qid)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one span never overlap (calls are nested, one thread), so
    the covered time is the sum of their durations.
    """
    own = [end - start for (_, _, start, end, _, _) in spans]
    for (_, _, start, end, parent, _) in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans) -> dict:
    """Per-layer and per-function call counts, self time and durations of
    the spans that belong to a query (qid >= 0)."""
    own = self_times(spans)
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    funcs: dict[str, dict] = {}
    for span, self_s in zip(spans, own):
        layer, name, start, end, _, qid = span
        if qid < 0:
            continue
        layers[layer]["calls"] += 1
        layers[layer]["self_s"] += self_s
        f = funcs.setdefault(f"{layer}.{name}", {"calls": 0, "self_s": 0.0, "durations": []})
        f["calls"] += 1
        f["self_s"] += self_s
        f["durations"].append(end - start)
    return {"layers": layers, "funcs": funcs}


def per_layer_metrics(rounds: list[dict], run_s: float, overhead_frac: float) -> dict:
    """The per-layer metric table from the traced rounds' aggregates.

    Counts and times are per round (mean over traced rounds); p50_ms pools
    the calls of every traced round.  ``run_s`` is the traced per-round
    run time that the shares divide by, in the same (raw) seconds as the
    spans.
    """
    n = len(rounds)
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        calls = sum(r["layers"][layer]["calls"] for r in rounds) / n
        self_s = sum(r["layers"][layer]["self_s"] for r in rounds) / n
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.share"] = (self_s / run_s if run_s > 0 else 0.0, "ratio")
    for layer, names in LAYER_FUNCS.items():
        for name in names:
            key = f"{layer}.{name}"
            entries = [r["funcs"].get(key) for r in rounds]
            entries = [e for e in entries if e]
            durations = [d for e in entries for d in e["durations"]]
            out[f"{key}.calls"] = (sum(e["calls"] for e in entries) / n, "count")
            out[f"{key}.self_s"] = (sum(e["self_s"] for e in entries) / n, "s")
            out[f"{key}.p50_ms"] = (1e3 * statistics.median(durations) if durations else 0.0, "ms")
    out["skew.first_query_s"] = (statistics.median(r["skew_first_query_s"] for r in rounds), "s")
    for name in CLI_METRICS:
        values = [v for r in rounds for v in r["cli"].get(name, [])]
        unit = "bytes" if name == "report_bytes" else "s"
        out[f"cli.{name}"] = (statistics.median(values) if values else 0.0, unit)
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    dummy = {"layers": {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}, "funcs": {},
             "skew_first_query_s": 0.0, "cli": {}}
    return [(name, unit) for name, (_, unit) in per_layer_metrics([dummy], 1.0, 0.0).items()]
