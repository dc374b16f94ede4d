"""End-to-end pipeline orchestration with per-stage subcommands.

Every stage reads its inputs from files in the output directory and writes
its artifacts back there; the one-shot pipeline simply runs the stages in
order, sharing one ``Workspace`` so that each intermediate is read and
derived once per process; the seed-pair users and the cascades share one
chain walk, the filter's in ``ingest``. Re-running a stage in isolation
therefore reproduces the one-shot bytes exactly. The manifest carries the
config echo, library versions, stage counts, and the master seed; it
deliberately omits the worker count and any timestamps so output bytes are
schedule-independent.

Importing this module loads only what argument parsing and the
``Workspace`` base need: ``csvio``, ``ingest`` and ``graph``. Each other
stage module is imported when a stage that calls it starts, so a stage
subcommand loads only its own: ``run_stage`` binds the modules that
``_STAGE_MODULES`` names for the stage, ``simulate`` binds ``sim``, and the
scoring workers bind ``exposure`` and ``virality``. Binding sets the module
and the names that ``_DEFERRED`` lists of it as globals here, and the stages
call them as globals, because the benchmark's tracer wraps them as
attributes of ``echospread.cli`` and tests patch them there. A name that is
already bound, such as a wrapper or a patch, is kept. Reading such a name
from outside before its stage has run binds its module first (PEP 562).
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import platform
import sys
import traceback
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .csvio import by_key, read_rows, write_csv
from .graph import (
    RetweetNetwork,
    bisect_partition,
    build_follower_network,
    build_retweet_network,
    largest_component,
    table_id,
    to_dot,
)
from .ingest import (
    SKEPTIC_PAIR,
    Cascade,
    CascadeReport,
    TweetRecord,
    build_cascades,
    chain_roots,
    compute_activities,
    filter_corpus,
    parse_records,
    seed_pair_users,
    write_records_jsonl,
)

# The names each stage module lends this one, bound by ``_bind``.
_DEFERRED = {
    "exposure": ("LEDGER_COLUMNS", "build_exposure_ledger", "choose_scope", "ledger_row"),
    "virality": ("Boundary", "ViralityEstimate", "activity_array", "read_virality_csv",
                 "write_virality_csv"),
    "labels": ("CoderSheet", "build_feature_matrix", "corpus_sheets", "extract_marks",
               "krippendorff_alpha", "majority_vote", "read_features_csv",
               "write_features_csv"),
    "lasso": ("ConvergenceError", "LassoConfig", "fit_cv", "kkt_residual_from_fit",
              "report_coefficients", "write_cv_curve_csv", "write_regress_csv"),
    "sim": ("SimConfig", "generate_world", "simulate_corpus", "write_world"),
    "textstats": ("cross_group_counts", "word_diff_table", "write_spread_csv",
                  "write_words_csv"),
}


def _bind(*modules: str) -> None:
    """Import each stage module named and bind it and its ``_DEFERRED``
    names as globals here, keeping any that are bound already."""
    namespace = globals()
    for name in modules:
        module = importlib.import_module(f"{__package__}.{name}")
        namespace.setdefault(name, module)
        for attr in _DEFERRED[name]:
            namespace.setdefault(attr, getattr(module, attr))


def __getattr__(name: str):
    """A ``_DEFERRED`` name or stage module, bound on first access."""
    for module, names in _DEFERRED.items():
        if name == module or name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_BUG = 3


@dataclass(frozen=True)
class PipelineConfig:
    tweets: Path
    edges: Path
    labels: tuple[Path, ...]
    out: Path
    seed: int = 0
    workers: int = 1
    balance_tol: float = 0.1
    min_author_tweets: int = 3
    folds: int = 5
    top_k: int = 30
    threshold: int = 10
    include_unexposed_retweeters: bool = False
    raw_activities: bool = False
    stemmer: bool = False
    lambda_grid: int = 100
    group_only_features: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    declared_inputs: Mapping[str, object] | None = None

    def __post_init__(self) -> None:
        for key, low in (("seed", 0), ("workers", 1), ("min_author_tweets", 0), ("folds", 2),
                         ("top_k", 0), ("threshold", 0), ("lambda_grid", 1)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be at least {low}, got {getattr(self, key)}")
        if not (math.isfinite(self.balance_tol) and self.balance_tol >= 0):
            raise ValueError(f"balance_tol must be finite and at least 0, got {self.balance_tol}")

    def echo(self) -> dict:
        """Manifest form: everything a rerun needs except the worker count and
        the output location, neither of which may influence output bytes.
        Input paths echo as declared (config values or flag overrides), not as
        resolved, so the manifest does not depend on where the tree sits."""
        declared = self.declared_inputs or {}
        return {
            "tweets": str(declared.get("tweets", self.tweets)),
            "edges": str(declared.get("edges", self.edges)),
            "labels": [str(p) for p in declared.get("labels", self.labels)],
            **{f.name: getattr(self, f.name) for f in fields(self)
               if isinstance(f.default, (int, float)) and f.name != "workers"},
            "group_only_features": {
                k: list(v) for k, v in sorted(self.group_only_features.items())
            },
        }


def parallel_map(fn, items, workers: int, initializer, initargs):
    """Order-preserving map over a pool of ``min(workers, len(items))``
    processes, or in this process when that is at most 1.
    ``initializer(*initargs)`` runs once in each process that calls ``fn``."""
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        initializer(*initargs)
        return [fn(item) for item in items]
    import multiprocessing

    with multiprocessing.Pool(workers, initializer=initializer, initargs=initargs) as pool:
        return pool.map(fn, items)


# ---------------------------------------------------------------- manifest


def _manifest_path(out: Path) -> Path:
    return out / "manifest.json"


def load_manifest(out: Path) -> dict:
    path = _manifest_path(out)
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    return {"stages": {}}


def write_manifest(out: Path, manifest: dict) -> None:
    manifest["versions"] = {
        "echospread": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    path = _manifest_path(out)
    path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def record_stage(config: PipelineConfig, name: str, counts: dict) -> None:
    manifest = load_manifest(config.out)
    manifest["config"] = config.echo()
    manifest.setdefault("stages", {})[name] = counts
    manifest.pop("failure", None)
    write_manifest(config.out, manifest)


def record_failure(config: PipelineConfig, stage: str, error: Exception) -> None:
    manifest = load_manifest(config.out)
    manifest["config"] = config.echo()
    manifest["failure"] = {"stage": stage, "error": str(error)}
    write_manifest(config.out, manifest)


# ---------------------------------------------------------------- workspace


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing {what}: {path}")
    return path


def _intermediate(out: Path, name: str, stage: str) -> Path:
    """``out / name``, which must exist; the stage ``stage`` writes it."""
    return _require(out / name, f"intermediate {name} (run {stage})")


class Workspace:
    """The config plus the intermediates in ``config.out``.

    Each intermediate is read from its artifact on first use and kept for
    the rest of the process, so ``run`` reads each one once and a stage
    subcommand reads only what it needs; ``ingest`` hands its filtered
    records, their chain roots and its activity counts over directly,
    ``network`` its component and ``partition`` its groups, so ``run``
    never reads ``filtered.jsonl``, ``activities.csv``,
    ``retweet_edges.csv`` or ``partition.csv``. A
    stage never touches a property backed by an artifact that it or a later
    stage writes: that file may be stale until its producing stage has run.
    Users are ids into one sorted user table, ``users``, from the cascades
    on; only the artifact writers and read-backs convert names. The seed
    pairs and the cascades share ``roots``, aligned with ``filtered``: the
    roots of the filter's walk, or else of one walk of ``filtered.jsonl``;
    ``network`` drops them once both are built.
    """

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config

    @cached_property
    def filtered(self) -> list[TweetRecord]:
        path = _intermediate(self.config.out, "filtered.jsonl", "ingest")
        records, report = parse_records(path)
        if report.malformed or report.duplicates:
            raise ValueError(
                f"corrupt intermediate {path}: {report.malformed} malformed,"
                f" {report.duplicates} repeated tweet_id lines"
            )
        return records

    @cached_property
    def users(self) -> tuple[str, ...]:
        """Every user of ``filtered.jsonl``, sorted: user ``k`` is ``users[k]``."""
        return tuple(sorted({rec.user_id for rec in self.filtered}))

    @cached_property
    def roots(self) -> list[TweetRecord | None]:
        """The chain root of each record of ``filtered``, in its order."""
        return chain_roots(self.filtered)

    @cached_property
    def pair_users(self) -> dict[tuple[str, str], np.ndarray]:
        """A mask over ``users`` per seed hashtag pair. ``filtered.jsonl`` is
        topical already (filtering is idempotent): it is not filtered again."""
        return seed_pair_users(self.filtered, self.roots, self.users)

    @cached_property
    def eligible(self) -> np.ndarray:
        """The users of any seed hashtag pair, as a mask over ``users``."""
        return np.logical_or.reduce(list(self.pair_users.values()))

    @cached_property
    def cascades(self) -> tuple[list[Cascade], CascadeReport]:
        return build_cascades(self.filtered, self.roots, self.users)

    @cached_property
    def activities(self) -> dict[str, int]:
        """Raw activity counts per user."""
        path = _intermediate(self.config.out, "activities.csv", "ingest")
        rows = by_key(path, read_rows(path, ["user", "raw"]))
        for user, (raw,) in rows.items():
            if not (raw.isascii() and raw.isdigit()):
                raise ValueError(f"{path}: raw {raw!r} of {user!r} is not a nonnegative integer")
        return {user: int(raw) for user, (raw,) in rows.items()}

    @cached_property
    def network(self) -> RetweetNetwork:
        path = _intermediate(self.config.out, "retweet_edges.csv", "network")
        rows, pairs = read_rows(path, ["a", "b"]), []
        try:
            for a, b in rows:
                if not a < b:
                    raise ValueError(f"edge {a},{b} is a self-loop or out of order")
                pairs.append((table_id(self.users, a), table_id(self.users, b)))
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from error
        return RetweetNetwork.from_edges(pairs)

    @cached_property
    def groups(self) -> np.ndarray:
        """The group, 0 or 1, of each user of the table, -1 outside the
        partitioned component. No stage reads the cut, so the network is not
        read."""
        path = _intermediate(self.config.out, "partition.csv", "partition")
        rows = by_key(path, read_rows(path, ["user", "group"]))
        groups = np.full(len(self.users), -1, dtype=np.int8)
        try:
            for user, (g,) in rows.items():
                if g not in ("0", "1"):
                    raise ValueError(f"group of {user} is {g!r}, not 0 or 1")
                groups[table_id(self.users, user)] = int(g)
            if not (np.any(groups == 0) and np.any(groups == 1)):
                raise ValueError("both groups must be nonempty")
        except ValueError as error:
            raise ValueError(f"bad partition in {path}: {error}") from error
        return groups

    @cached_property
    def names(self) -> dict[int, str]:
        return name_groups(self.pair_users[SKEPTIC_PAIR], self.groups)

    @cached_property
    def activist(self) -> int:
        return next(g for g, n in self.names.items() if n == "activist")


def name_groups(hoax: np.ndarray, groups: np.ndarray) -> dict[int, str]:
    """The group holding more hoax-pair users is the skeptic side: ``hoax``
    masks the user table that ``groups`` is over."""
    g = groups[hoax]
    skeptic = 0 if np.count_nonzero(g == 0) > np.count_nonzero(g == 1) else 1
    return {skeptic: "skeptic", 1 - skeptic: "activist"}


# ------------------------------------------------------------------ stages


def stage_ingest(ws: Workspace) -> dict:
    config = ws.config
    records, parse_report = parse_records(_require(config.tweets, "tweets file"))
    topical, roots = filter_corpus(records)
    activities = compute_activities(records)

    write_records_jsonl(topical, config.out / "filtered.jsonl")
    ws.filtered, ws.roots = topical, roots  # what parsing and walking the file would give
    write_csv(config.out / "activities.csv", ["user", "raw"], sorted(activities.items()))
    ws.activities = activities
    return {
        "lines": parse_report.lines,
        "parsed": parse_report.parsed,
        "malformed": parse_report.malformed,
        "duplicates": parse_report.duplicates,
        "topical": len(topical),
        "eligible_users": int(np.count_nonzero(ws.eligible)),
    }


def stage_network(ws: Workspace) -> dict:
    cascades, report = ws.cascades
    net = build_retweet_network(cascades, ws.eligible)
    comp = largest_component(net)
    write_csv(ws.config.out / "retweet_edges.csv", ["a", "b"],
              ((ws.users[a], ws.users[b]) for a, b in comp.edges()))
    ws.network = comp  # as read back, except that a lone node is kept
    del ws.roots  # the seed pairs and the cascades are built: nothing reads them again
    return {
        "cascades": report.cascades,
        "stub_origins": report.stub_origins,
        "dropped_cycles": report.dropped_cycles,
        "network_nodes": net.n_nodes,
        "network_edges": net.n_edges,
        "component_nodes": comp.n_nodes,
        "component_edges": comp.n_edges,
    }


def stage_partition(ws: Workspace) -> dict:
    config = ws.config
    net = ws.network
    split = bisect_partition(net, balance_tol=config.balance_tol, seed=config.seed)
    groups = np.full(len(ws.users), -1, dtype=np.int8)
    groups[list(net.nodes)] = split.side
    ws.groups = groups  # as read back from partition.csv
    write_csv(config.out / "partition.csv", ["user", "group"],
              zip((ws.users[k] for k in net.nodes), split.side.tolist()))
    (config.out / "network.dot").write_text(to_dot(net, split.side, ws.users), encoding="utf-8")
    n1 = int(split.side.sum())
    return {
        "cut_size": split.cut_size,
        "balance": split.balance,
        "group_sizes": [net.n_nodes - n1, n1],
        "group_names": {str(g): n for g, n in ws.names.items()},
    }


_SCORE_CTX: dict = {}


def _init_score_worker(*context) -> None:
    _bind("exposure", "virality")  # a spawned worker imports only this module
    _SCORE_CTX["ctx"] = context


def _score_task(k: int) -> tuple[list, ViralityEstimate] | None:
    """The ``ledgers.csv`` row and the estimate of cascade ``k``, or None for
    an unscorable cascade. The ledger stays in the process that built it."""
    cascades, follow, groups, include_unexposed, alpha = _SCORE_CTX["ctx"]
    try:
        group = choose_scope(cascades[k], groups)
    except ValueError:
        return None
    ledger = build_exposure_ledger(
        cascades[k], follow, groups, group, include_unexposed_retweeters=include_unexposed
    )
    return ledger_row(ledger), virality.mle_virality(ledger, alpha)


def stage_virality(ws: Workspace) -> dict:
    """Each cascade is scored where its ledger is built: the pool gets
    cascade indices and returns rows and estimates, in tweet-id order."""
    config = ws.config
    cascades, _ = ws.cascades
    follow, dropped_edges = build_follower_network(
        _require(config.edges, "edges file"), ws.users
    )
    results = parallel_map(
        _score_task,
        range(len(cascades)),
        config.workers,
        initializer=_init_score_worker,
        initargs=(
            cascades,
            follow,
            ws.groups,
            config.include_unexposed_retweeters,
            activity_array(ws.activities, follow.users, raw=config.raw_activities),
        ),
    )
    _SCORE_CTX.clear()  # set here when run in-process; it holds every cascade
    scored = [result for result in results if result is not None]
    write_csv(config.out / "ledgers.csv", LEDGER_COLUMNS, (row for row, _ in scored))
    write_virality_csv((est for _, est in scored), config.out / "virality.csv")
    zero = sum(est.boundary is Boundary.ZERO_SUCCESSES for _, est in scored)
    return {
        "dropped_edges": dropped_edges,
        "ledgers": len(scored),
        "unscorable_cascades": len(results) - len(scored),
        "scored": len(scored) - zero,
        "zero_successes": zero,
    }


def stage_words(ws: Workspace) -> dict:
    config = ws.config
    cascades, _ = ws.cascades
    groups = ws.groups
    activist = ws.activist
    texts: dict[int, list[str]] = {0: [], 1: []}
    for cascade in cascades:
        if cascade.author >= 0 and groups[cascade.author] >= 0:
            texts[int(groups[cascade.author])].append(cascade.text)
    rows_act, rows_ske = word_diff_table(
        texts[activist], texts[1 - activist], top_k=config.top_k, stemmer=config.stemmer
    )
    write_words_csv(rows_act, config.out / "words_activist.csv")
    write_words_csv(rows_ske, config.out / "words_skeptic.csv")
    return {
        "activist_tweets": len(texts[activist]),
        "skeptic_tweets": len(texts[1 - activist]),
        "rows": [len(rows_act), len(rows_ske)],
    }


def stage_spread(ws: Workspace) -> dict:
    cascades, _ = ws.cascades
    counts, summary = cross_group_counts(
        cascades, ws.groups, threshold=ws.config.threshold, activist_group=ws.activist
    )
    write_spread_csv(counts, ws.config.out / "spread.csv")
    return {"tweets": len(counts), "threshold": summary.threshold,
            "qualifying": summary.qualifying}


def stage_labels(ws: Workspace) -> dict:
    config = ws.config
    sheets = [CoderSheet.from_csv(_require(p, "label sheet")) for p in config.labels]
    sheets.sort(key=lambda s: s.coder_id)
    by_id = {rec.tweet_id: rec for rec in ws.filtered}
    sheets, outside = corpus_sheets(sheets, by_id.keys())
    vote = majority_vote(sheets)
    alpha = krippendorff_alpha(sheets)

    authors = {tid: by_id[tid].user_id for tid in vote.rows}
    marks = {tid: extract_marks(by_id[tid].text) for tid in vote.rows}
    estimates = read_virality_csv(_intermediate(config.out, "virality.csv", "virality"))
    names = ws.names
    name_to_group = {n: g for g, n in names.items()}
    group_only = {}
    for name, feats in config.group_only_features.items():
        if name not in name_to_group:
            raise ValueError(f"group_only_features: unknown group {name!r}")
        unknown = [f for f in feats if f not in vote.features]
        if unknown:
            raise ValueError(f"group_only_features[{name!r}]: unknown features {unknown}")
        group_only[name_to_group[name]] = tuple(feats)

    counts: dict = {
        "krippendorff_alpha": alpha,
        "consensus_rate": vote.consensus_rate,
        "ties": len(vote.ties),
        "labeled_tweets": len(vote.rows),
        "labels_outside_corpus": outside,
    }
    for g, name in sorted(names.items()):
        matrix = build_feature_matrix(
            vote,
            marks,
            estimates,
            authors,
            group=g,
            min_author_tweets=config.min_author_tweets,
            group_only_features=group_only,
        )
        write_features_csv(matrix, config.out / f"features_{name}.csv")
        counts[f"rows_{name}"] = matrix.n
        counts[f"excluded_zero_successes_{name}"] = matrix.excluded_zero_successes
        counts[f"excluded_thin_authors_{name}"] = matrix.excluded_thin_authors
    return counts


def stage_regress(ws: Workspace) -> dict:
    config = ws.config
    counts: dict = {}
    for name in ("activist", "skeptic"):
        path = _intermediate(config.out, f"features_{name}.csv", "labels")
        X, y, groups, columns = read_features_csv(path)
        if X.shape[0] < max(2, config.folds):
            counts[name] = {"skipped": f"only {X.shape[0]} rows"}
            continue
        lasso_cfg = LassoConfig(
            lambda_grid=config.lambda_grid, folds=config.folds, seed=config.seed
        )
        fit = fit_cv(X, y, groups, lasso_cfg)
        residual = kkt_residual_from_fit(X, y, groups, fit)
        if not residual <= 1e-6:  # a NaN residual fails too
            raise ConvergenceError(
                f"{name}: KKT residual {residual:.3g} not within 1e-6", fit.beta, residual
            )
        report = report_coefficients(fit, columns)
        write_regress_csv(report, config.out / f"regress_{name}.csv")
        write_cv_curve_csv(fit.cv_curve, config.out / f"cv_curve_{name}.csv")
        counts[name] = {
            "lambda": fit.lam,
            "active_groups": len(fit.active_groups),
            "kkt_residual": residual,
            "rows": int(X.shape[0]),
        }
    return counts


STAGES: tuple[tuple[str, object], ...] = (
    ("ingest", stage_ingest),
    ("network", stage_network),
    ("partition", stage_partition),
    ("virality", stage_virality),
    ("words", stage_words),
    ("spread", stage_spread),
    ("labels", stage_labels),
    ("regress", stage_regress),
)


# The stage modules each stage calls into, beyond those imported above.
_STAGE_MODULES = {
    "virality": ("exposure", "virality"),
    "words": ("textstats",),
    "spread": ("textstats",),
    "labels": ("labels", "virality"),
    "regress": ("labels", "lasso"),
}


def _exit_code_for(error: Exception) -> int | None:
    """2 for a numerical failure, 1 for bad input, None for anything else:
    an exception of another type is a bug, which ``main`` exits 3 for."""
    if isinstance(error, ArithmeticError):
        return EXIT_NUMERICAL
    if isinstance(error, (OSError, ValueError, csv.Error)):
        return EXIT_INPUT
    return None


def run_stage(ws: Workspace, name: str) -> int:
    _bind(*_STAGE_MODULES.get(name, ()))
    fn = dict(STAGES)[name]
    config = ws.config
    config.out.mkdir(parents=True, exist_ok=True)
    try:
        counts = fn(ws)
    except Exception as error:  # noqa: BLE001 - boundary turns errors into codes
        record_failure(config, name, error)
        code = _exit_code_for(error)
        if code is None:
            raise
        print(f"error in stage {name}: {error}", file=sys.stderr)
        return code
    record_stage(config, name, counts)
    return EXIT_OK


def run_pipeline(config: PipelineConfig) -> int:
    config.out.mkdir(parents=True, exist_ok=True)
    for path, what in (
        (config.tweets, "tweets"),
        (config.edges, "edges"),
        *((p, "labels") for p in config.labels),
    ):
        if not Path(path).exists():
            error = FileNotFoundError(f"missing {what} input: {path}")
            record_failure(config, "validate-inputs", error)
            print(f"error: {error}", file=sys.stderr)
            return EXIT_INPUT
    ws = Workspace(config)
    for name, _ in STAGES:
        code = run_stage(ws, name)
        if code != EXIT_OK:
            return code
    return EXIT_OK


# --------------------------------------------------------------- interface


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, help="process count for scoring cascades")
    parser.add_argument("--tweets", help="tweets.jsonl input")
    parser.add_argument("--edges", help="edges.csv input")
    parser.add_argument("--labels", nargs="*", help="coder label sheets")
    parser.add_argument("--min-author-tweets", type=int, dest="min_author_tweets")
    parser.add_argument("--balance-tol", type=float, dest="balance_tol")
    parser.add_argument("--folds", type=int)
    parser.add_argument("--top-k", type=int, dest="top_k")
    parser.add_argument("--threshold", type=int)
    parser.add_argument(
        "--include-unexposed-retweeters",
        action="store_true",
        default=None,
        dest="include_unexposed_retweeters",
    )
    parser.add_argument("--raw-activities", action="store_true", default=None,
                        dest="raw_activities")
    parser.add_argument("--stemmer", action="store_true", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echospread", description="Retweet-cascade virality pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", *(n for n, _ in STAGES), "simulate"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=Path, help="JSON pipeline configuration")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--seed", type=int, help="master seed")
        if name != "simulate":
            _add_pipeline_flags(sp)
    return parser


# The keys of a config file: the pipeline settings and the simulator's section,
# so that one file can hold both.
_CONFIG_KEYS = {f.name for f in fields(PipelineConfig)} - {"declared_inputs"} | {"sim"}

# The JSON types a config value of each type may take; an integer is also a float.
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), Path: (str,)}


def _check_object(raw, allowed, prefix: str) -> None:
    """``raw`` must be a JSON object whose keys are among ``allowed``."""
    if type(raw) is not dict:
        where = f"config key {prefix[:-1]!r}" if prefix else "config file"
        raise ValueError(f"{where}: expected an object, got {json.dumps(raw)}")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ValueError(f"unknown config key {prefix + unknown[0]!r}")


def _read(cls, raw, prefix: str) -> dict:
    """Keyword arguments for the config dataclass ``cls`` from the JSON object
    ``raw``, which may set only fields of ``cls``; a field it leaves out keeps
    its default. ``prefix`` is the dotted key of ``raw`` plus a dot, or empty."""
    hints = get_type_hints(cls)
    _check_object(raw, hints, prefix)
    return {name: _typed(hints[name], value, prefix + name) for name, value in raw.items()}


def _typed(hint, value, key: str):
    """The config value ``value`` as type ``hint``, which it must match: a
    bool only from true or false, an int only from an integer, a float from
    any number, a str or Path from a string, a tuple from a list, a mapping or
    a config dataclass from an object, and ``X | None`` from null too."""
    if get_origin(hint) in (Union, UnionType):
        if value is None and type(None) in get_args(hint):
            return None
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    origin, args = get_origin(hint), get_args(hint)
    if is_dataclass(hint):
        return hint(**_read(hint, value, key + "."))
    if origin is Mapping and type(value) is dict:
        return {name: _typed(args[1], v, f"{key}.{name}") for name, v in value.items()}
    if origin is tuple and type(value) is list:
        return tuple(_typed(args[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    if type(value) in _JSON_TYPES.get(hint, ()):
        return hint(value)
    expected = getattr(origin or hint, "__name__", hint)
    raise ValueError(f"config key {key!r}: expected {expected}, got {json.dumps(value)}")


def _config_file(path: Path | None) -> dict:
    if path is None:
        return {}
    raw = json.loads(_require(path, "config file").read_text(encoding="utf-8"))
    _check_object(raw, _CONFIG_KEYS, "")
    return raw


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The config file's settings, overridden by the flags given. Input paths
    are relative to the config file; ``out`` is relative to the working
    directory."""
    given = {key: value for key, value in _config_file(args.config).items() if key != "sim"}
    given.update((f.name, getattr(args, f.name)) for f in fields(PipelineConfig)
                 if getattr(args, f.name, None) is not None)
    settings = _read(PipelineConfig, given, "")
    base = args.config.parent if args.config is not None else Path(".")
    declared = {"tweets": "tweets.jsonl", "edges": "edges.csv", "labels": []}
    declared.update((key, given[key]) for key in declared if key in given)
    return PipelineConfig(**{
        **settings,
        "tweets": base / declared["tweets"],  # an absolute path stays as it is
        "edges": base / declared["edges"],
        "labels": tuple(base / p for p in declared["labels"]),
        "out": settings.get("out", Path("out")),
        "declared_inputs": declared,
    })


def _sim_config(args: argparse.Namespace) -> SimConfig:
    _bind("sim")
    settings = _read(SimConfig, _config_file(args.config).get("sim", {}), "sim.")
    if args.seed is not None:
        settings["master_seed"] = args.seed
    return SimConfig(**settings)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _sim_config(args)  # binds sim before its names are looked up
    world = generate_world(config)
    sims, truth = simulate_corpus(world)
    write_world(world, sims, truth, Path("out" if args.out is None else args.out))
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    """Exit 0 on success, 1 for bad input, 2 for a numerical failure and 3
    for a bug: any other exception, whose traceback goes to stderr."""
    try:
        return _dispatch(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 for a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    except Exception as error:  # noqa: BLE001 - boundary turns errors into codes
        code = _exit_code_for(error)
        if code is None:
            traceback.print_exc()
            return EXIT_BUG
        print(f"error: {error}", file=sys.stderr)
        return code


def _dispatch(argv: Sequence[str] | None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args)
    config = _config_from_args(args)
    if args.command == "run":
        return run_pipeline(config)
    return run_stage(Workspace(config), args.command)


if __name__ == "__main__":
    raise SystemExit(main())
