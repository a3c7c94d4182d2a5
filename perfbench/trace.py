"""Per-layer tracing of hedgelab from outside the program.

``Tracer.install`` replaces each layer's public functions, at every place
a hedgelab module binds them, with a wrapper that records one span per
call (name, start, end; the parent follows from the nesting) into flat
arrays; ``restore`` puts the originals back.  The program's files are
never touched.

A span's self time is its duration minus the durations of its direct
children.  ``layer_metrics`` folds the spans and counters of one
operation into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from time import perf_counter


def _count_paths(counts, args, result):
    paths = result[0] if isinstance(result, tuple) else result
    counts["stoch_models.paths"] += paths.shape[0]
    if isinstance(result, tuple) and isinstance(result[1], int):
        counts["stoch_models.regenerated_paths"] += result[1]


def _count_session(counts, args, result):
    # a session's trades are its uncross volume plus its submits' volume;
    # counting them here keeps a hook off the hottest call, Book.submit
    counts["lob.trades"] += result.n_trades
    if result.n_trades == 0:
        counts["fcn_agents.rejected_sessions"] += 1


def _rows(x):
    return (x.data if hasattr(x, "data") else x).shape[0]


def _count_graph_rows(counts, args, result):
    counts["neuralnet.graph_forward_rows"] += _rows(args[1])


def _count_np_rows(counts, args, result):
    counts["neuralnet.forward_np_rows"] += _rows(args[1])


def _count_rollbacks(counts, args, result):
    counts["neuralnet.rollbacks"] += sum(
        "rolled back" in line for line in result[1].diagnostics)


def _count_bytes(counts, args, result):
    path = str(args[0])
    counts["paths_io.bytes_written"] += (os.path.getsize(path)
                                         + os.path.getsize(path + ".json"))


# (module, attribute or Class.method, span name, counter hook)
LAYER_FUNCTIONS = [
    ("hedgelab.cli", "main", "cli.main", None),
    ("hedgelab.stoch_models", "gbm_paths", "stoch_models.gbm_paths",
     _count_paths),
    ("hedgelab.stoch_models", "heston_paths", "stoch_models.heston_paths",
     _count_paths),
    ("hedgelab.fcn_agents", "simulate_paths", "fcn_agents.simulate_paths",
     None),
    ("hedgelab.fcn_agents", "run_session", "fcn_agents.run_session",
     _count_session),
    ("hedgelab.lob", "Book.submit", "lob.submit", None),
    ("hedgelab.lob", "expire_orders", "lob.expire_orders", None),
    ("hedgelab.lob", "uncross", "lob.uncross", None),
    ("hedgelab.hedge_core", "features_matrix", "hedge_core.features_matrix",
     None),
    ("hedgelab.hedge_core", "pl_core", "hedge_core.pl_core", None),
    ("hedgelab.neuralnet", "MlpPolicy.__call__", "neuralnet.graph_forward",
     _count_graph_rows),
    ("hedgelab.neuralnet", "MlpPolicy.forward_np", "neuralnet.forward_np",
     _count_np_rows),
    ("hedgelab.neuralnet", "Adam.step", "neuralnet.adam_step", None),
    ("hedgelab.neuralnet", "train", "neuralnet.train", _count_rollbacks),
    ("hedgelab.autodiff", "Tensor.backward", "autodiff.backward", None),
    ("hedgelab.risk", "utility", "risk.utility", None),
    ("hedgelab.risk", "indifference_price", "risk.indifference_price", None),
    ("hedgelab.paths_io", "save_paths", "paths_io.save_paths", _count_bytes),
]

# per-layer metric -> unit, in BENCHMARK.json order
LAYER_METRICS = {
    "stoch_models.busy_s": "s",
    "stoch_models.paths": "count",
    "stoch_models.regenerated_paths": "count",
    "fcn_agents.self_s": "s",
    "fcn_agents.sessions": "count",
    "fcn_agents.rejected_sessions": "count",
    "fcn_agents.accept_ratio": "ratio",
    "lob.submit_s": "s",
    "lob.submits": "count",
    "lob.trades": "count",
    "lob.trade_ratio": "ratio",
    "lob.expire_s": "s",
    "lob.expire_calls": "count",
    "lob.uncross_s": "s",
    "hedge_core.features_s": "s",
    "hedge_core.pl_core_s": "s",
    "neuralnet.graph_forward_s": "s",
    "neuralnet.graph_forward_rows": "count",
    "neuralnet.forward_np_s": "s",
    "neuralnet.forward_np_rows": "count",
    "neuralnet.report_pass_s": "s",
    "neuralnet.adam_s": "s",
    "neuralnet.train_self_s": "s",
    "neuralnet.minibatches": "count",
    "neuralnet.rollbacks": "count",
    "autodiff.backward_s": "s",
    "autodiff.backward_calls": "count",
    "risk.utility_s": "s",
    "risk.indifference_price_s": "s",
    "cli.self_s": "s",
    "paths_io.save_s": "s",
    "paths_io.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}


class Tracer:
    """Span recorder for one operation at a time; single-threaded.

    Spans are recorded in the order they start.  Calls nest, so a span's
    parent is the latest-starting span still open when it starts; it is
    worked out afterwards, which keeps the wrapper to two clock reads and
    three appends.
    """

    def __init__(self):
        self.names = [spec[2] for spec in LAYER_FUNCTIONS]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._patches = []
        self.reset()

    def reset(self) -> None:
        for arr in (self.name, self.start, self.end):
            del arr[:]
        self.counts.clear()
        for key in LAYER_METRICS:
            self.counts[key] = 0

    def _wrapper(self, original, name_id, hook):
        names, starts = self.name.append, self.start.append
        ends, ends_append = self.end, self.end.append
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(ends)
            names(name_id)
            ends_append(0.0)
            starts(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function wherever a hedgelab module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hedgelab"
                                         or n.startswith("hedgelab."))]
        for name_id, (mod_name, attr, _, hook) in enumerate(LAYER_FUNCTIONS):
            module = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original,
                            self._wrapper(original, name_id, hook))
                continue
            original = getattr(module, attr)
            traced = self._wrapper(original, name_id, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, traced)

    def _patch(self, owner, attr, original, traced) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- metrics --

    def parents(self) -> list:
        """Index of each span's parent span, -1 for a root."""
        out = []
        open_spans = []
        for i, start in enumerate(self.start):
            while open_spans and self.end[open_spans[-1]] <= start:
                open_spans.pop()
            out.append(open_spans[-1] if open_spans else -1)
            open_spans.append(i)
        return out

    def self_times(self, parents):
        """(durations, self times) per span, children subtracted."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def layer_metrics(self, wall: float) -> dict:
        """Per-layer metrics of the operation recorded since ``reset``."""
        parents = self.parents()
        dur, own = self.self_times(parents)
        ids = {n: i for i, n in enumerate(self.names)}
        train_id = ids["neuralnet.train"]
        forward_np_id = ids["neuralnet.forward_np"]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        root = 0.0
        report_pass = 0.0
        for i, nid in enumerate(self.name):
            self_s[nid] += own[i]
            calls[nid] += 1
            p = parents[i]
            if p < 0:
                root += dur[i]
            elif nid == forward_np_id:
                while p >= 0 and self.name[p] != train_id:
                    p = parents[p]
                if p >= 0:
                    report_pass += own[i]

        def s(name):
            return self_s[ids[name]]

        def n(name):
            return calls[ids[name]]

        c = self.counts
        sessions = n("fcn_agents.run_session")
        submits = n("lob.submit")
        m = dict(c)
        m.update({
            "stoch_models.busy_s": s("stoch_models.gbm_paths")
            + s("stoch_models.heston_paths"),
            "fcn_agents.self_s": s("fcn_agents.run_session")
            + s("fcn_agents.simulate_paths"),
            "fcn_agents.sessions": sessions,
            "fcn_agents.accept_ratio":
                (sessions - c["fcn_agents.rejected_sessions"]) / sessions
                if sessions else 0.0,
            "lob.submit_s": s("lob.submit"),
            "lob.submits": submits,
            "lob.trade_ratio": c["lob.trades"] / submits if submits else 0.0,
            "lob.expire_s": s("lob.expire_orders"),
            "lob.expire_calls": n("lob.expire_orders"),
            "lob.uncross_s": s("lob.uncross"),
            "hedge_core.features_s": s("hedge_core.features_matrix"),
            "hedge_core.pl_core_s": s("hedge_core.pl_core"),
            "neuralnet.graph_forward_s": s("neuralnet.graph_forward"),
            "neuralnet.forward_np_s": s("neuralnet.forward_np"),
            "neuralnet.report_pass_s": report_pass,
            "neuralnet.adam_s": s("neuralnet.adam_step"),
            "neuralnet.train_self_s": s("neuralnet.train"),
            "neuralnet.minibatches": n("neuralnet.graph_forward"),
            "autodiff.backward_s": s("autodiff.backward"),
            "autodiff.backward_calls": n("autodiff.backward"),
            "risk.utility_s": s("risk.utility"),
            "risk.indifference_price_s": s("risk.indifference_price"),
            "cli.self_s": s("cli.main"),
            "paths_io.save_s": s("paths_io.save_paths"),
            "trace.wall_s": wall,
            "trace.coverage": root / wall,
            "trace.spans": len(self.name),
        })
        return m

    def save(self, path) -> None:
        """Write the recorded spans as an .npz of flat arrays."""
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.array(self.parents(), dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
