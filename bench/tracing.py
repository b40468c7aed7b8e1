"""Span tracing from outside the package, and the per-layer metrics built on it.

Each entry point is wrapped at the module where its caller looks it up
(``grid.solve_lp`` is what the DC-OPF and the oracle call,
``cli.assess_security`` is what ``riskgate triage`` calls), so the
package itself is never edited.  A wrapper records one span -- name,
start, end, parent, op id -- and, for some entry points, counts taken
from the return value.  Spans live in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from collections import defaultdict

from riskgate import calibration, cli, experiments, grid

# (module, attribute looked up by the caller, span name = layer.function)
ENTRY_POINTS = (
    (cli, "main", "cli.main"),
    (cli, "build_database", "scenario_gen.build_database"),
    (cli, "save_database", "scenario_gen.save_database"),
    (cli, "load_database", "scenario_gen.load_database"),
    (cli, "assess_security", "grid.assess_security"),
    (cli, "load_model", "learner.load_model"),
    (cli, "rank_scenarios", "risk_engine.rank_scenarios"),
    (cli, "triage", "risk_engine.triage"),
    (cli, "triage_csv", "risk_engine.triage_csv"),
    (grid, "solve_dcopf", "grid.solve_dcopf"),  # scenario_gen calls grid_mod.solve_dcopf
    (grid, "assess_security", "grid.assess_security"),  # ... and grid_mod.assess_security
    (grid, "solve_lp", "simplex.solve_lp"),
    (experiments, "fit_contingency_model", "experiments.fit_contingency_model"),
    (experiments, "train_adaboost", "learner.train_adaboost"),
    (experiments, "fit_platt", "calibration.fit_platt"),
    (experiments, "ensemble_score", "learner.ensemble_score"),
    (calibration, "ensemble_score", "learner.ensemble_score"),  # CalibratedEnsemble.score
)
SPAN_NAMES = tuple(sorted({name for _, _, name in ENTRY_POINTS}))


# Counts read from an entry point's return value (public attributes only).
OBSERVERS = {
    "simplex.solve_lp": lambda r, a, k: {"infeasible": int(not r.optimal)},
    "scenario_gen.build_database": lambda r, a, k: {"conditions": len(r)},
    "scenario_gen.save_database": lambda r, a, k: {"bytes": os.path.getsize(a[1])},
    "learner.train_adaboost": lambda r, a, k: {"rounds": r.rounds},
    "calibration.fit_platt": lambda r, a, k: {"iterations": r.iterations},
    "risk_engine.rank_scenarios": lambda r, a, k: {"scenarios": len(r)},
    "risk_engine.triage": lambda r, a, k: {
        "oracle_checks": r.n_high, "oracle_failures": len(r.assessment_failures)},
}
# Entry points whose RuntimeWarnings are caught and counted, not printed.
COUNT_WARNINGS = {"calibration.fit_platt": "nonconverged"}


class EntryPointMissing(RuntimeError):
    pass


class Tracer:
    """Records spans of the ops it is told about; inert between ops."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, counts]
        self._stack = []
        self._op = None
        self._saved = []
        self.ops = 0

    def install(self):
        for module, attr, name in ENTRY_POINTS:
            if not hasattr(module, attr):
                raise EntryPointMissing(f"{module.__name__}.{attr} no longer exists (span {name})")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def begin_op(self, op_id):
        self._op = op_id
        self.ops += 1

    def end_op(self):
        self._op = None

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        warn_key = COUNT_WARNINGS.get(name)

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self._op, {}]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                if warn_key:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", RuntimeWarning)
                        result = fn(*args, **kwargs)
                    span[5][warn_key] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
                else:
                    result = fn(*args, **kwargs)
                if observe:
                    span[5].update(observe(result, args, kwargs))
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, **counts}) + "\n")

    def summary(self):
        """Per span name: calls, busy and self seconds, summed counts."""
        child_time = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {name: defaultdict(float) for name in SPAN_NAMES}
        first_op = self.spans[0][4] if self.spans else None
        for k, (name, start, end, parent, op, counts) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[k]
            for key, value in counts.items():
                row[key] += value
            if name == "learner.train_adaboost" and op == first_op:
                row["first_op_rounds"] += counts.get("rounds", 0)
            if name == "simplex.solve_lp" and parent is not None \
                    and self.spans[parent][0] == "grid.assess_security":
                out["grid.assess_security"]["lp_calls"] += 1
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, ops):
    """The per-layer metrics, per traced op unless the name says otherwise."""
    s = summary
    per_op = lambda v: v / ops  # noqa: E731
    return {
        "simplex.solve_lp.calls": per_op(s["simplex.solve_lp"]["calls"]),
        "simplex.solve_lp.busy_s": per_op(s["simplex.solve_lp"]["busy_s"]),
        "simplex.solve_lp.infeasible_frac": _ratio(s["simplex.solve_lp"]["infeasible"],
                                                   s["simplex.solve_lp"]["calls"]),
        "grid.solve_dcopf.calls": per_op(s["grid.solve_dcopf"]["calls"]),
        "grid.solve_dcopf.self_s": per_op(s["grid.solve_dcopf"]["self_s"]),
        "grid.assess_security.calls": per_op(s["grid.assess_security"]["calls"]),
        "grid.assess_security.self_s": per_op(s["grid.assess_security"]["self_s"]),
        "grid.assess_security.lp_frac": _ratio(s["grid.assess_security"]["lp_calls"],
                                               s["grid.assess_security"]["calls"]),
        "scenario_gen.build_database.self_s": per_op(s["scenario_gen.build_database"]["self_s"]),
        "scenario_gen.dcopf_per_condition": _ratio(s["grid.solve_dcopf"]["calls"],
                                                   s["scenario_gen.build_database"]["conditions"]),
        "scenario_gen.save_database.busy_s": per_op(s["scenario_gen.save_database"]["busy_s"]),
        "scenario_gen.dataset_bytes": per_op(s["scenario_gen.save_database"]["bytes"]),
        "scenario_gen.load_database.busy_s": per_op(s["scenario_gen.load_database"]["busy_s"]),
        "learner.train_adaboost.calls": per_op(s["learner.train_adaboost"]["calls"]),
        "learner.train_adaboost.busy_s": per_op(s["learner.train_adaboost"]["busy_s"]),
        # an exact count: rounds chosen by cross-validation for the first op's input
        "learner.rounds_chosen": s["learner.train_adaboost"]["first_op_rounds"],
        "learner.ensemble_score.busy_s": per_op(s["learner.ensemble_score"]["busy_s"]),
        "learner.load_model.busy_s": per_op(s["learner.load_model"]["busy_s"]),
        "calibration.fit_platt.busy_s": per_op(s["calibration.fit_platt"]["busy_s"]),
        "calibration.fit_platt.iterations": per_op(s["calibration.fit_platt"]["iterations"]),
        "calibration.fit_platt.nonconverged": per_op(s["calibration.fit_platt"]["nonconverged"]),
        "risk_engine.rank_scenarios.busy_s": per_op(s["risk_engine.rank_scenarios"]["busy_s"]),
        "risk_engine.rank_scenarios.scenarios": per_op(s["risk_engine.rank_scenarios"]["scenarios"]),
        "risk_engine.triage.self_s": per_op(s["risk_engine.triage"]["self_s"]),
        "risk_engine.triage.oracle_checks": per_op(s["risk_engine.triage"]["oracle_checks"]),
        "risk_engine.triage.oracle_failures": per_op(s["risk_engine.triage"]["oracle_failures"]),
        "risk_engine.triage_csv.busy_s": per_op(s["risk_engine.triage_csv"]["busy_s"]),
        "experiments.fit_contingency_model.self_s": per_op(s["experiments.fit_contingency_model"]["self_s"]),
        "cli.main.self_s": per_op(s["cli.main"]["self_s"]),
    }


def check_layer_predictions(summary, idle_prefixes):
    """Fail unless idle layers recorded no call and every other layer did."""
    def idle(name):
        return any(name == p or name.startswith(p + ".") for p in idle_prefixes)

    wrong_idle = [n for n in SPAN_NAMES if idle(n) and summary[n]["calls"]]
    wrong_busy = [n for n in SPAN_NAMES if not idle(n) and not summary[n]["calls"]]
    problems = []
    if wrong_idle:
        problems.append(f"layers predicted idle recorded calls: {wrong_idle}")
    if wrong_busy:
        problems.append(f"layers predicted busy recorded no call (moved call site?): {wrong_busy}")
    return problems
