"""Span recorder for the benchmark's traced runs.

The program carries no instrumentation: a traced run replaces functions with
timing wrappers from outside. Each wrapper is installed where its caller looks
the function up. ``from .x import y`` copies the binding into the importing
module, so a wrapper placed only in the defining module would record nothing
for calls made through the copy. Methods are patched on their class, which is
where every instance looks them up.

Spans carry a name, start, end and parent. They stay in memory and are
written once, by the worker, when the run ends. Functions that run thousands
of times per replication are aggregated (calls, total and self time) rather
than kept as span records; their time still counts as child time of the
enclosing span, so every self time excludes it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# name -> (call-site bindings, mode). A binding is "module:attr" or
# "module:Class.attr". Modes: "span" keeps one record per call, "hot"
# aggregates, "count" only counts calls (no clock reads).
WRAPPED = {
    "cli.main": (["duogame.cli:main"], "span"),
    "config.load_config": (["duogame.cli:load_config",
                            "duogame.config:load_config"], "span"),
    "config.save_config": (["duogame.cli:save_config"], "span"),
    "network.generate_ba_network": (["duogame.runner:generate_ba_network",
                                     "duogame.network:generate_ba_network"],
                                    "span"),
    "gsa.run_gsa": (["duogame.cli:run_gsa"], "span"),
    "gsa.build_empirical_game": (["duogame.gsa:build_empirical_game"], "span"),
    "gsa.simulate_profile": (["duogame.gsa:_simulate_profile"], "span"),
    "gsa.source_call": (["duogame.gsa:SimulationPayoffSource.__call__"], "span"),
    "gsa.screen_effects": (["duogame.gsa:screen_effects"], "span"),
    "gsa.tolerance_sweep": (["duogame.gsa:tolerance_sweep"], "span"),
    "gsa.neighbor_strictness_test": (["duogame.gsa:neighbor_strictness_test"],
                                     "span"),
    "gsa.stability_analysis": (["duogame.gsa:stability_analysis",
                                "duogame.cli:stability_analysis"], "span"),
    "doe.doe_significance": (["duogame.gsa:doe_significance"], "span"),
    "factors.materialize": (["duogame.gsa:materialize"], "hot"),
    "runner.estimate_payoffs": (["duogame.gsa:estimate_payoffs"], "span"),
    "runner.run_replication": (["duogame.runner:run_replication",
                                "duogame.cli:run_replication"], "span"),
    "runner.compute_payoff": (["duogame.runner:compute_payoff",
                               "duogame.cli:compute_payoff"], "hot"),
    "supply_chain.steady_state": (["duogame.runner:steady_state"], "hot"),
    "supply_chain.step_company": (["duogame.runner:step_company"], "hot"),
    "supply_chain.step_pricing": (["duogame.runner:step_pricing"], "hot"),
    "market.step": (["duogame.market:ConsumerMarket.step"], "hot"),
    "market.neighbor_influence": (["duogame.market:ConsumerMarket.neighbor_influence"],
                                  "hot"),
    "stats.decide_sample_size": (["duogame.gsa:decide_sample_size"], "hot"),
    "stats.trim_samples": (["duogame.gsa:trim_samples",
                            "duogame.stats:trim_samples"], "hot"),
    "stats.t_test": (["duogame.gsa:t_test", "duogame.doe:t_test"], "hot"),
    "stats.confidence_interval": (["duogame.gsa:confidence_interval"], "hot"),
    "game.pure_nash": (["duogame.game:EmpiricalGame.pure_nash"], "span"),
    "game.min_regret_profile": (["duogame.game:EmpiricalGame.min_regret_profile"],
                                "span"),
    "game.payoff": (["duogame.game:EmpiricalGame.payoff"], "count"),
    "reporting.save_checkpoint": (["duogame.reporting:save_checkpoint"], "span"),
    "reporting.load_checkpoint": (["duogame.reporting:load_checkpoint"], "span"),
    "reporting.write_payoff_matrix": (["duogame.cli:write_payoff_matrix",
                                       "duogame.reporting:write_payoff_matrix"],
                                      "span"),
    "reporting.read_payoff_matrix": (["duogame.cli:read_payoff_matrix",
                                      "duogame.reporting:read_payoff_matrix"],
                                     "span"),
    "reporting.write_trace_csv": (["duogame.cli:write_trace_csv"], "span"),
    "reporting.write_iteration_report": (["duogame.cli:write_iteration_report"],
                                         "span"),
    "reporting.write_figure_data": (["duogame.cli:write_figure_data"], "span"),
}


def _resolve(binding):
    module_name, _, path = binding.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


class Recorder:
    """In-memory spans and per-name aggregates for one traced run.

    ``spans`` holds ``[id, name, start, end, parent_id, self_s]`` per call of
    a "span" function and ``stats`` holds ``[calls, total_s, self_s]`` per
    name. A probe maps a call's bound arguments and result to numbers, which
    are summed per name into ``totals``.
    """

    def __init__(self, probes=None):
        self.spans = []
        self.stats = {}
        self.totals = {}
        self.probes = dict(probes or {})
        self.missing = []       # bindings that did not resolve
        self._stack = []        # open frames: [start, child_s, span_id]
        self._patches = []      # (owner, attr, original)

    # -- installation --------------------------------------------------------

    def install(self, wrapped=WRAPPED):
        """Wrap every binding; one the program no longer has is listed in
        ``missing`` and simply records no calls."""
        if self._patches:
            raise RuntimeError("wrappers already installed")
        self.missing = []
        for name, (bindings, mode) in wrapped.items():
            for binding in bindings:
                try:
                    owner, attr = _resolve(binding)
                    original = owner.__dict__[attr] if isinstance(owner, type) \
                        else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(binding)
                    continue
                setattr(owner, attr, self._wrap(name, original, mode))
                self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def calls(self, name) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, mode):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        if mode == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                entry[0] += 1
                return fn(*args, **kwargs)
            return counted

        stack, clock = self._stack, time.perf_counter
        if mode == "hot":
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                frame = [clock(), 0.0, None]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - frame[0]
                    stack.pop()
                    if stack:
                        stack[-1][1] += duration
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[1]
            return hot

        probe = self.probes.get(name)
        signature = inspect.signature(fn) if probe is not None else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)         # reserve the id in call order
            parent = next((f[2] for f in reversed(stack) if f[2] is not None),
                          None)
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                self.spans[span_id] = [span_id, name, frame[0], end, parent,
                                       duration - frame[1]]
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                sums = self.totals.setdefault(name, {})
                for key, value in probe(bound.arguments, result).items():
                    sums[key] = sums.get(key, 0) + value
            return result
        return span

    # -- output --------------------------------------------------------------

    def durations(self, name):
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def as_dict(self):
        return {"spans": self.spans,
                "stats": {k: list(v) for k, v in sorted(self.stats.items())},
                "totals": self.totals}


def nesting_errors(spans, slack=1e-9):
    """Spans that stick out of their parent or have negative self time."""
    by_id = {s[0]: s for s in spans}
    errors = []
    for span_id, name, start, end, parent, self_s in spans:
        if self_s < -slack or end < start:
            errors.append(f"{name}#{span_id}: self {self_s} s")
        if parent is not None:
            p = by_id[parent]
            if start < p[2] - slack or end > p[3] + slack:
                errors.append(f"{name}#{span_id} lies outside {p[1]}#{parent}")
    return errors
