"""Spans around the package's public functions, recorded from outside.

The tracer replaces a function in every ``artifact`` module namespace that
binds it (``measure`` is bound in ``statevec``, ``provers`` and ``mbqc``),
so calls made inside the package are caught as well as the benchmark's
own.  Spans stay in memory as (name, start, end, parent, trace id, size)
and are written out when the run ends; nothing is traced while the
originals are restored.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

# module.function (or module.Class.method) -> whether the first argument is
# an amplitude vector whose length the span records, for ns per amplitude
TRACED = {
    "statevec.apply_single": True,
    "statevec.apply_unitary": True,
    "statevec.measure": False,
    "statevec.project": False,
    "statevec.expectation": False,
    "statevec.qubit_cap": False,
    "graphstate.build_graph_state": False,
    "provers.strategy_from_json": False,
    "provers.execute_query": False,
    "provers.ProverSet.clone": False,
    "selftest.run_oneshot": False,
    "selftest.subtest_breakdown": False,
    "selftest.exact_pass_probability": False,
    "mbqc.run_pattern": False,
    "mbqc.run_distribution": False,
    "mbqc.reference_run": False,
    "isometry.equivalence_distance": False,
    "isometry.apply_phi": False,
    "isometry.grouped_matrix": False,
    "isometry.measured_epsilon": False,
    "isometry.constructed_junk": False,
    "protocol.run_amplified": False,
    "protocol.run_round": False,
    "experiments.run_experiment": False,
}

PACKAGE = "artifact"
OP = "op"
# called once per trial by run_experiment; opens a new trace id when hooked
TRIAL_STREAM = "experiments.trial_rng"


class Tracer:
    """In-memory span recorder that can be switched in and out of the package."""

    def __init__(self):
        self.names: list[str] = [OP]
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.trace_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _span(self, name_idx: int, fn, sized: bool):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            sid = len(self.spans)
            self.spans.append(None)
            self.stack.append(sid)
            size = len(args[0]) if sized else 0
            trace = self.trace_id
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (name_idx, start, end, parent, trace, size)

        return traced

    def op(self, fn):
        """Run one benchmark operation under a root span with a fresh trace id."""
        self.trace_id += 1
        return self._span(0, fn, False)()

    # -- patching ---------------------------------------------------------

    def install(self, per_trial: bool = False):
        """Wrap every traced function wherever the package binds it.

        With ``per_trial`` each trial of run_experiment also opens a new
        trace id, without a span of its own.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for dotted, sized in TRACED.items():
            mod_name, *path = dotted.split(".")
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            if dotted not in self.names:
                self.names.append(dotted)
            wrapped = self._span(self.names.index(dotted), original, sized)
            if len(path) > 1:
                self._patch(owner, path[-1], wrapped)
                continue
            for mod in modules:
                if getattr(mod, path[-1], None) is original:
                    self._patch(mod, path[-1], wrapped)
        if per_trial:
            mod_name, attr = TRIAL_STREAM.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)

            def new_trial(*args, **kwargs):
                self.trace_id += 1
                return original(*args, **kwargs)

            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, new_trial)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting --------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per name: calls, self seconds and amplitudes touched."""
        child = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out = {name: {"calls": 0, "self_s": 0.0, "amps": 0}
               for name in self.names}
        for sid, (name_idx, start, end, _, _, size) in enumerate(self.spans):
            row = out[self.names[name_idx]]
            row["calls"] += 1
            row["self_s"] += end - start - child[sid]
            row["amps"] += size
        return out

    def calls_under(self, name: str, parent: str) -> int:
        """Calls of ``name`` whose direct parent span is ``parent``."""
        name_idx, parent_idx = self.names.index(name), self.names.index(parent)
        return sum(1 for span in self.spans
                   if span[0] == name_idx and span[3] >= 0
                   and self.spans[span[3]][0] == parent_idx)

    def write(self, path):
        """Spans as tab-separated lines: id, name, start, end, parent, trace, size."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\ttrace\tsize\n")
            fh.writelines(
                f"{sid}\t{self.names[s[0]]}\t{s[1]:.9f}\t{s[2]:.9f}\t{s[3]}\t{s[4]}\t{s[5]}\n"
                for sid, s in enumerate(self.spans))
