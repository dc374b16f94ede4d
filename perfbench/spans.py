"""Spans around calls into echospread's layers, recorded from outside.

``Tracer.installed()`` replaces each public function in the module namespace
its caller looks it up in (``echospread.cli`` for the stages, ``virality``
inside ``score_corpus``, ``sim`` inside ``recovery_experiment``) with a
wrapper that records a span: name, start, end and parent. Nothing under
``src/`` changes, and leaving the context restores the originals. Spans stay
in memory; ``metrics()`` turns them into the per-layer figures.

Resident memory of this process is read at every span boundary; a stage's
``rss_mb`` is the highest reading inside it. Work inside pool workers cannot
be seen from here; it shows as the one ``cli.parallel_map`` span around it.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import time
from dataclasses import dataclass, field

STAGES = ("ingest", "network", "partition", "virality", "words", "spread",
          "labels", "regress")
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0


@dataclass
class Counters:
    values: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.values[key] = max(self.values.get(key, value), value)


# Per-call counters read from arguments and results (args, kwargs, result).
def _parsed(c, a, k, res):
    report = res[1]
    c.add("parsed", report.parsed)
    c.add("lines", report.lines)
    c.add("malformed", report.malformed)


def _partition(c, a, k, res):
    net = a[0] if a else k["net"]
    c.add("graph.partition_nodes", net.n_nodes)
    c.add("graph.partition_edges", net.n_edges)
    c.add("graph.cut_size", res.cut_size)


def _ledger(c, a, k, res):
    c.add("exposure.trials", len(res.exposed))


def _mle(c, a, k, res):
    c.add("boundary." + res.boundary.value, 1)


def _features(c, a, k, res):
    c.add("labels.rows", res.n)


def _fit_cv(c, a, k, res):
    cfg = a[3] if len(a) > 3 else k["config"]
    c.add("lasso.path_solves", cfg.folds * cfg.lambda_grid)
    c.add("lasso.final_iters", res.n_iter)


def _kkt(c, a, k, res):
    c.peak("lasso.kkt_residual", res)


def _sim(c, a, k, res):
    c.add("sim.records", len(res.records))


# (module, attribute, span name, counter hook)
WRAPPED = (
    ("echospread.cli", "parse_records", "ingest.parse_records", _parsed),
    ("echospread.cli", "filter_corpus", "ingest.filter_corpus", None),
    ("echospread.cli", "build_cascades", "ingest.build_cascades", None),
    ("echospread.cli", "seed_pair_users", "ingest.seed_pair_users", None),
    ("echospread.cli", "bisect_partition", "graph.bisect_partition", _partition),
    ("echospread.cli", "build_follower_network", "graph.build_follower_network", None),
    ("echospread.cli", "build_retweet_network", "graph.build_retweet_network", None),
    ("echospread.cli", "largest_component", "graph.largest_component", None),
    ("echospread.cli", "to_dot", "graph.to_dot", None),
    ("echospread.cli", "build_exposure_ledger", "exposure.build_exposure_ledger", _ledger),
    ("echospread.cli", "choose_scope", "exposure.choose_scope", None),
    ("echospread.cli", "compute_activities", "virality.compute_activities", None),
    ("echospread.virality", "mle_virality", "virality.mle_virality", _mle),
    ("echospread.cli", "majority_vote", "labels.majority_vote", None),
    ("echospread.cli", "krippendorff_alpha", "labels.krippendorff_alpha", None),
    ("echospread.cli", "build_feature_matrix", "labels.build_feature_matrix", _features),
    ("echospread.cli", "word_diff_table", "textstats.word_diff_table", None),
    ("echospread.cli", "cross_group_counts", "textstats.cross_group_counts", None),
    ("echospread.cli", "fit_cv", "lasso.fit_cv", _fit_cv),
    ("echospread.cli", "kkt_residual_from_fit", "lasso.kkt_residual_from_fit", _kkt),
    ("echospread.cli", "parallel_map", "cli.parallel_map", None),
    ("echospread.cli", "record_stage", "cli.record_stage", None),
    ("echospread.sim", "generate_world", "sim.generate_world", None),
    ("echospread.sim", "simulate_cascade", "sim.simulate_cascade", _sim),
    ("echospread.sim", "build_cascades", "ingest.build_cascades", None),
    ("echospread.sim", "build_exposure_ledger", "exposure.build_exposure_ledger", _ledger),
    ("echospread.sim", "mle_virality", "virality.mle_virality", _mle),
)

SELF_TIMES = tuple(dict.fromkeys(name for _, _, name, _ in WRAPPED))
CALL_COUNTS = ("ingest.parse_records", "ingest.filter_corpus", "ingest.build_cascades",
               "ingest.seed_pair_users", "exposure.build_exposure_ledger",
               "virality.mle_virality", "lasso.fit_cv", "sim.simulate_cascade")


def layer_metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = [f"{n}.s" for n in SELF_TIMES]
    names += [f"{n}.calls" for n in CALL_COUNTS]
    names += ["ingest.records_per_s", "ingest.malformed_ratio",
              "graph.partition_nodes", "graph.partition_edges", "graph.cut_size",
              "exposure.ledgers_per_s", "exposure.trials", "exposure.trials_per_s",
              "exposure.unscorable_ratio",
              "virality.mles_per_s", "virality.upper_boundary_ratio",
              "virality.zero_successes_ratio", "labels.rows",
              "lasso.path_solves", "lasso.solves_per_s", "lasso.final_iters",
              "lasso.kkt_residual", "sim.cascades_per_s", "sim.records"]
    for stage in STAGES:
        names += [f"cli.stage.{stage}.{m}" for m in ("s", "self_s", "coverage", "rss_mb")]
    names += ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", ".coverage")):
        return "ratio"
    if name.endswith("rss_mb"):
        return "MB"
    if name == "lasso.kkt_residual":
        return "residual"
    return "count"


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


class Tracer:
    """Records spans while installed; one instance per traced unit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters = Counters()
        self.stage_rss: dict[str, float] = {}
        self._stack: list[int] = []
        self._peak_rss = 0.0

    def _open(self, name: str) -> int:
        self._peak_rss = max(self._peak_rss, _rss_mb())
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._peak_rss = max(self._peak_rss, _rss_mb())
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if name == "exposure.choose_scope":
                    self.counters.add("exposure.unscorable", 1)
                raise
            finally:
                self._close(index)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_stage(self, run_stage):
        def traced(config, name):
            self._peak_rss = 0.0
            index = self._open(f"cli.stage.{name}")
            try:
                return run_stage(config, name)
            finally:
                self._close(index)
                self.stage_rss[name] = self._peak_rss

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        saved = []
        for module_name, attr, name, hook in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))
        cli = importlib.import_module("echospread.cli")
        saved.append((cli, "run_stage", cli.run_stage))
        cli.run_stage = self._wrap_stage(cli.run_stage)
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of everything recorded so far."""
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span in self.spans:
            own = span.end - span.start - span.child_s
            self_s[span.name] = self_s.get(span.name, 0.0) + own
            calls[span.name] = calls.get(span.name, 0) + 1
        c = self.counters.values
        out: dict[str, float] = {}
        for name in SELF_TIMES:
            out[f"{name}.s"] = self_s.get(name, 0.0)
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = calls.get(name, 0)

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        ledgers = calls.get("exposure.build_exposure_ledger", 0)
        mles = calls.get("virality.mle_virality", 0)
        out.update({
            "ingest.records_per_s": rate(c.get("parsed", 0), out["ingest.parse_records.s"]),
            "ingest.malformed_ratio": share(c.get("malformed", 0), c.get("lines", 0)),
            "graph.partition_nodes": c.get("graph.partition_nodes", 0),
            "graph.partition_edges": c.get("graph.partition_edges", 0),
            "graph.cut_size": c.get("graph.cut_size", 0),
            "exposure.ledgers_per_s": rate(ledgers, out["exposure.build_exposure_ledger.s"]),
            "exposure.trials": c.get("exposure.trials", 0),
            "exposure.trials_per_s": rate(c.get("exposure.trials", 0),
                                          out["exposure.build_exposure_ledger.s"]),
            "exposure.unscorable_ratio": share(c.get("exposure.unscorable", 0),
                                               calls.get("exposure.choose_scope", 0)),
            "virality.mles_per_s": rate(mles, out["virality.mle_virality.s"]),
            "virality.upper_boundary_ratio": share(c.get("boundary.upper_boundary", 0), mles),
            "virality.zero_successes_ratio": share(c.get("boundary.zero_successes", 0), mles),
            "labels.rows": c.get("labels.rows", 0),
            "lasso.path_solves": c.get("lasso.path_solves", 0),
            "lasso.solves_per_s": rate(c.get("lasso.path_solves", 0), out["lasso.fit_cv.s"]),
            "lasso.final_iters": c.get("lasso.final_iters", 0),
            "lasso.kkt_residual": c.get("lasso.kkt_residual", 0.0),
            "sim.cascades_per_s": rate(calls.get("sim.simulate_cascade", 0),
                                       out["sim.simulate_cascade.s"]),
            "sim.records": c.get("sim.records", 0),
        })
        for stage in STAGES:
            name = f"cli.stage.{stage}"
            total = sum(s.end - s.start for s in self.spans if s.name == name)
            own = self_s.get(name, 0.0)
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = own
            out[f"{name}.coverage"] = share(total - own, total)
            out[f"{name}.rss_mb"] = self.stage_rss.get(stage, 0.0)
        return out


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Metric-by-metric median over traced units."""
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
