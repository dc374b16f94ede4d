"""Benchmark of the echospread pipeline.

One run measures one workload for a fixed time and prints, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload world --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` launches the program as a user does, one process per command,
and reports the end-to-end metrics: ``wall_s`` (seconds of the slowest
correct unit, from launching its first process to its checked result),
``setup_s`` (median seconds from launch until ``echospread.cli`` and numpy
are imported) and ``peak_rss_mb`` (median over units of the highest resident
memory of a unit's processes, pool workers included).

``wall_s`` takes the slowest unit, not the median, because the speed of the
host comes in two states: the same unit on the same input takes 1.1 s in a
fast spell and 2.0 s in the common slow state, its CPU time moving with it.
The median and the minimum flip between the states with the share of fast
spells in a run; the maximum stays at the slow state. Over four sets of ten
runs the run maxima spread at most 0.21 (interquartile range over median)
and their set medians moved at most 15%, where run medians spread up to
0.45 and run minima moved 46% between sets. The median, quartiles and
fastest unit are printed too.

``--trace 1`` runs the same units in this process, alternating untraced and
traced ones, and reports the per-layer metrics of ``spans.py`` plus the
tracing overhead. ``--workload all`` runs every workload in both modes and
prints one report.

A unit that exits non-zero or fails its output check counts in ``failed``;
the run goes on. Inputs come from ``--seed`` only. Everything is written
under ``.bench_work/`` in the checkout and removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import json
import os
import platform
import runpy
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "fixtures" / "config.json"
RECOVERY = ROOT / "scripts" / "recovery_experiment.py"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import world as worldgen  # noqa: E402

WORKLOADS = ("fixture", "world", "world-stages", "recovery")
STAGES = spans.STAGES
PIPELINE_ARTIFACTS = frozenset({
    "activities.csv", "cv_curve_activist.csv", "cv_curve_skeptic.csv",
    "features_activist.csv", "features_skeptic.csv", "filtered.jsonl", "ledgers.csv",
    "manifest.json", "network.dot", "partition.csv", "regress_activist.csv",
    "regress_skeptic.csv", "retweet_edges.csv", "spread.csv", "virality.csv",
    "words_activist.csv", "words_skeptic.csv",
})
KKT_LIMIT = 1e-6
WORLD = worldgen.WorldSpec()
# Criterion 04's model and edge density at 2/5 of its nodes and 1/10 of its
# cascades, so that a unit takes about two seconds.
RECOVERY_R = (0.05, 0.1, 0.2, 0.4)
RECOVERY_PER_R = 20
RECOVERY_ARGS = ("--nodes", "800", "--edge-prob", "0.3",
                 "--cascades-per-r", str(RECOVERY_PER_R),
                 "--r-values", ",".join(map(str, RECOVERY_R)))
# Planted-truth limits. Over master seeds 1-30 at this size the worst median
# error was 0.21 and the worst p90 0.46 (both at r = 0.05).
RECOVERY_MEDIAN_LIMIT = 0.3
RECOVERY_P90_LIMIT = 0.7
SETUP_REPEATS = 9
HARD_LIMIT_S = 170.0
PROGRAM = "import sys; from echospread.cli import main; sys.exit(main())"
IMPORT_PROBE = "import numpy, echospread.cli, time; print(repr(time.time()))"


class BenchError(Exception):
    """The benchmark cannot run here (the program or its inputs are missing)."""


@dataclass
class Command:
    """One program invocation: echospread's CLI, or a script under scripts/."""

    args: tuple[str, ...]
    script: Path | None = None

    @property
    def label(self) -> str:
        return self.script.name if self.script else self.args[0]

    def argv(self) -> list[str]:
        head = [sys.executable, str(self.script)] if self.script else [
            sys.executable, "-c", PROGRAM]
        return head + list(self.args)


@dataclass
class Unit:
    wall_s: float
    rss_mb: float
    digest: str | None
    reasons: list[str]
    layers: dict[str, float] | None = None


@dataclass
class Context:
    workload: str
    seed: int
    work: Path
    deadline: float
    env: dict[str, str]
    inputs: dict = field(default_factory=dict)
    reference: str | None = None
    problems: list[str] = field(default_factory=list)

    def commands(self, out: Path) -> list[Command]:
        if self.workload == "fixture":
            return [Command(("run", "--config", str(FIXTURE), "--out", str(out)))]
        config = str(self.work / "world" / "config.json")
        if self.workload == "world":
            return [Command(("run", "--config", config, "--out", str(out)))]
        if self.workload == "world-stages":
            return [Command((stage, "--config", config, "--out", str(out), "--workers", "2"))
                    for stage in STAGES]
        return [Command(RECOVERY_ARGS + ("--master-seed", str(self.seed),
                                         "--out", str(out / "recovery.csv")),
                        script=RECOVERY)]


# ------------------------------------------------------------------ digests


def file_digest(paths: list[Path], root: Path) -> str:
    """sha256 over the names relative to root and the bytes of the files."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


# ------------------------------------------------------------------- checks


def check_pipeline(out: Path) -> tuple[list[str], str | None]:
    """Exact artifact set, no recorded failure, every KKT residual <= 1e-6."""
    files = [p for p in out.rglob("*") if p.is_file()]
    names = {p.relative_to(out).as_posix() for p in files}
    reasons = []
    if names != PIPELINE_ARTIFACTS:
        reasons.append(f"artifact set differs: missing {sorted(PIPELINE_ARTIFACTS - names)}"
                       f" extra {sorted(names - PIPELINE_ARTIFACTS)}")
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return reasons + [f"manifest unreadable: {exc}"], None
    stages = manifest.get("stages", {})
    if "failure" in manifest or set(stages) != set(STAGES):
        reasons.append(f"manifest records failure {manifest.get('failure')} "
                       f"or stages {sorted(stages)}")
    for group, fit in stages.get("regress", {}).items():
        residual = fit.get("kkt_residual") if isinstance(fit, dict) else None
        if not isinstance(residual, (int, float)) or residual > KKT_LIMIT:
            reasons.append(f"regress {group}: KKT residual {residual!r}")
    return reasons, file_digest(files, out)


def check_recovery(out: Path) -> tuple[list[str], str | None]:
    """The error table covers every planted r and stays near the truth."""
    path = out / "recovery.csv"
    reasons = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if [float(r["planted_r"]) for r in rows] != list(RECOVERY_R):
            reasons.append(f"planted r column {[r['planted_r'] for r in rows]}")
        for row in rows:
            if (int(row["cascades"]) != RECOVERY_PER_R
                    or int(row["unscorable"]) > RECOVERY_PER_R // 5
                    or not float(row["median_rel_error"]) <= RECOVERY_MEDIAN_LIMIT
                    or not float(row["p90_rel_error"]) <= RECOVERY_P90_LIMIT):
                reasons.append(f"outside the planted-truth limits: {dict(row)}")
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable recovery table: {exc!r}"], None
    return reasons, file_digest([path], out)


def check_unit(ctx: Context, out: Path) -> tuple[list[str], str | None]:
    if ctx.workload == "recovery":
        reasons, digest = check_recovery(out)
    else:
        reasons, digest = check_pipeline(out)
    if digest is not None and not reasons:
        if ctx.reference is None:
            ctx.reference = digest
        elif digest != ctx.reference:
            reasons.append(f"output digest {digest[:12]} differs from {ctx.reference[:12]}")
    return reasons, digest


# ---------------------------------------------------------------- processes


def launch(argv: list[str], ctx: Context, log: Path) -> tuple[int, float]:
    """Run one process to its end; (exit code, peak RSS in MB of it and its
    waited-for children, pool workers included). The process group is killed
    at the run's deadline."""
    with open(log, "ab") as fh:
        proc = subprocess.Popen(argv, cwd=ctx.work, env=ctx.env, stdout=fh,
                                stderr=subprocess.STDOUT, start_new_session=True)
        guard = threading.Timer(max(0.0, ctx.deadline - time.monotonic()),
                                os.killpg, (proc.pid, signal.SIGKILL))
        guard.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            guard.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _log_tail(log: Path) -> str:
    text = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-3:])


def run_unit(ctx: Context, index: int) -> Unit:
    """Launch the unit's commands in order, then check what they wrote."""
    out = ctx.work / f"out{index}"
    log = ctx.work / f"unit{index}.log"
    out.mkdir()
    start = time.perf_counter()
    rss = 0.0
    reasons: list[str] = []
    for command in ctx.commands(out):
        code, peak = launch(command.argv(), ctx, log)
        rss = max(rss, peak)
        if code != 0:
            reasons.append(f"{command.label} exited {code}: {_log_tail(log)}")
            break
    return finish_unit(ctx, out, log, start, reasons, rss)


def run_unit_in_process(ctx: Context, index: int, tracer: spans.Tracer | None) -> Unit:
    """The same unit inside this process, optionally traced."""
    from echospread import cli

    out = ctx.work / f"out{index}"
    log = ctx.work / f"unit{index}.log"
    reasons: list[str] = []
    out.mkdir()
    scope = tracer.installed() if tracer is not None else contextlib.nullcontext()
    gc.collect()
    start = time.perf_counter()
    with open(log, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh), \
            contextlib.redirect_stderr(fh), scope:
        for command in ctx.commands(out):
            saved_argv = sys.argv
            try:
                if command.script is None:
                    code = cli.main(list(command.args))
                else:
                    sys.argv = [str(command.script), *command.args]
                    runpy.run_path(str(command.script), run_name="__main__")
                    code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # noqa: BLE001 - a failing unit is counted, the run goes on
                traceback.print_exc()
                code = "an exception"
            finally:
                sys.argv = saved_argv
            if code != 0:
                reasons.append(f"{command.label} returned {code}")
                break
    if reasons:
        reasons[0] += f": {_log_tail(log)}"
    unit = finish_unit(ctx, out, log, start, reasons, 0.0)
    unit.layers = tracer.metrics() if tracer is not None else None
    return unit


def finish_unit(ctx: Context, out: Path, log: Path, start: float, reasons: list[str],
                rss: float) -> Unit:
    """Check the output unless a command failed, stop the clock, clean up."""
    digest = None
    if not reasons:
        reasons, digest = check_unit(ctx, out)
    wall = time.perf_counter() - start
    if not reasons:
        record_sizes(ctx, out, log)
    shutil.rmtree(out, ignore_errors=True)
    return Unit(wall, rss, digest, reasons)


def measure_setup(ctx: Context) -> float:
    """Seconds from launch until echospread.cli and numpy are imported."""
    start = time.time()
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ctx.work, env=ctx.env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip()) - start


# ------------------------------------------------------------------- inputs


def record_sizes(ctx: Context, out: Path, log: Path) -> None:
    """Input sizes the program reports: the retweet network for the pipeline,
    the generated graph for the recovery script."""
    if ctx.workload == "recovery":
        for line in log.read_text(encoding="utf-8").splitlines():
            if line.startswith("world: "):  # "world: N users, M follow edges"
                parts = line.split()
                ctx.inputs.update(users=int(parts[1]), follow_edges=int(parts[3]))
        return
    stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
    ctx.inputs.update(records=stages["ingest"]["parsed"],
                      cascades=stages["network"]["cascades"],
                      retweet_nodes=stages["network"]["network_nodes"],
                      retweet_edges=stages["network"]["network_edges"])


def prepare(ctx: Context) -> None:
    """Generate or locate the inputs; for world-stages, make the one-shot
    reference its bytes must equal."""
    if ctx.workload == "fixture":
        files = [p for p in FIXTURE.parent.iterdir() if p.is_file()]
        with open(FIXTURE.parent / "tweets.jsonl", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        users = {r["user_id"] for r in records}
        with open(FIXTURE.parent / "edges.csv", encoding="utf-8") as fh:
            edges = sum(1 for _ in fh) - 1
        ctx.inputs = {"records": len(records), "users": len(users), "follow_edges": edges,
                      "digest": file_digest(files, FIXTURE.parent)}
    elif ctx.workload == "recovery":
        args = " ".join(RECOVERY_ARGS + ("--master-seed", str(ctx.seed)))
        ctx.inputs = {"cascades": len(RECOVERY_R) * RECOVERY_PER_R,
                      "args": args, "digest": hashlib.sha256(args.encode()).hexdigest()}
    else:
        world = ctx.work / "world"
        info = worldgen.generate(WORLD, ctx.seed, world)
        ctx.inputs = {"records": info.records, "lines": info.lines, "users": info.users,
                      "follow_edges": info.follow_edges, "cascades": info.cascades,
                      "retweets": info.retweets,
                      "digest": file_digest(list(world.iterdir()), world)}
    if ctx.workload == "world-stages":
        out = ctx.work / "reference"
        argv = Command(("run", "--config", str(ctx.work / "world" / "config.json"),
                        "--out", str(out))).argv()
        code, _ = launch(argv, ctx, ctx.work / "reference.log")
        reasons, digest = check_pipeline(out) if code == 0 else ([f"exited {code}"], None)
        if reasons:
            ctx.problems.append(f"one-shot reference run failed: {reasons}")
        ctx.reference = digest


# ---------------------------------------------------------------- reporting


def provenance() -> dict:
    import numpy

    def first(path: str, key: str) -> str | None:
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    sources = sorted((SRC / "echospread").glob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_digest": file_digest(sources, SRC),
    }


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def end_to_end(units: list[Unit], setup: list[float]) -> dict:
    ok = [u for u in units if not u.reasons]
    walls = [u.wall_s for u in units]
    tail = tail_percentile(walls)
    tail_text = f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "n/a (needs 11 units)"
    quart = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    slowest = max([u.wall_s for u in ok] or walls)
    print(f"  wall_s       {slowest:.4f} s  slowest of {len(ok)} correct units;"
          f" fastest {min(walls):.4f}, median {statistics.median(walls):.4f},"
          f" quartiles {quart[0]:.4f} / {quart[2]:.4f},"
          f" highest percentile with >=10 beyond: {tail_text}")
    print(f"  setup_s      {statistics.median(setup):.4f} s  median of {len(setup)} launches")
    rss = [u.rss_mb for u in units]
    print(f"  peak_rss_mb  {statistics.median(rss):.1f} MB  median of {len(rss)} units")
    print(f"  fail_ratio   {len(units) - len(ok)}/{len(units)}  (reported as failed/attempted)")
    return {
        "wall_s": {"value": slowest, "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def layers(untraced: list[Unit], traced: list[Unit]) -> dict:
    merged = spans.median_metrics([u.layers for u in traced])
    merged["trace.wall_s"] = statistics.median(u.wall_s for u in traced)
    merged["trace.untraced_wall_s"] = statistics.median(u.wall_s for u in untraced)
    merged["trace.overhead_s"] = merged["trace.wall_s"] - merged["trace.untraced_wall_s"]
    print(f"  {len(traced)} traced and {len(untraced)} untraced in-process units;"
          f" tracing overhead {merged['trace.overhead_s']:+.4f} s on"
          f" {merged['trace.untraced_wall_s']:.4f} s")
    for name in spans.layer_metric_names():
        if merged[name]:
            print(f"  {name:40s} {merged[name]:.6g}")
    return {name: {"value": merged[name], "unit": spans.unit_of(name)}
            for name in spans.layer_metric_names()}


# --------------------------------------------------------------------- main


def require_program(workload: str) -> None:
    needed = [SRC / "echospread" / "cli.py"]
    if workload == "fixture":
        needed.append(FIXTURE)
    if workload == "recovery":
        needed.append(RECOVERY)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"program files missing from the checkout: {missing}")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    require_program(workload)
    started = time.monotonic()
    work = ROOT / ".bench_work" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(SRC), "TMPDIR": str(work / "tmp")}
    ctx = Context(workload, seed, work, started + HARD_LIMIT_S, env)
    load_before = os.getloadavg()
    try:
        prepare(ctx)
        print(f"workload {workload}  seed {seed}  trace {trace}")
        if trace:
            sys.path.insert(0, str(SRC))
            import echospread.cli

            if Path(echospread.cli.__file__).resolve().parent != SRC / "echospread":
                raise BenchError(f"echospread imported from {echospread.cli.__file__}")
            untraced, traced = [], []
            window = time.monotonic() + seconds
            while not traced or time.monotonic() < window:
                # Alternate which of the pair goes first.
                for use in ((False, True) if len(traced) % 2 == 0 else (True, False)):
                    unit = run_unit_in_process(ctx, len(untraced) + len(traced),
                                               spans.Tracer() if use else None)
                    (traced if use else untraced).append(unit)
            units = untraced + traced
            metrics = layers(untraced, traced)
        else:
            measure_setup(ctx)  # writes the bytecode caches; not counted
            setup, units = [], []
            window = time.monotonic() + seconds
            # Set-up launches go between units, so both sample the same spells
            # of the host's speed.
            while not units or time.monotonic() < window:
                setup.append(measure_setup(ctx))
                units.append(run_unit(ctx, len(units)))
                if time.monotonic() > ctx.deadline:
                    break
            while len(setup) < SETUP_REPEATS:
                setup.append(measure_setup(ctx))
            metrics = end_to_end(units, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for u in units if u.reasons)
    print("  unit walls " + " ".join(f"{u.wall_s:.3f}" for u in units))
    for i, unit in enumerate(units):
        for reason in unit.reasons:
            print(f"  unit {i} FAILED: {reason}")
    for problem in ctx.problems:
        print(f"  FAILED: {problem}")
    digests = sorted({u.digest for u in units if u.digest})
    print(f"inputs {json.dumps(ctx.inputs, sort_keys=True)}")
    print(f"outputs {json.dumps({'digest': ctx.reference, 'distinct_digests': len(digests)})}")
    print("provenance " + json.dumps({**provenance(), "loadavg_before": load_before,
                                      "loadavg_after": os.getloadavg()}, sort_keys=True))
    return {"correct": failed == 0 and not ctx.problems, "attempted": len(units),
            "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float) -> bool:
    """Every workload, untraced then traced, as separate runs of this script."""
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=HARD_LIMIT_S + 30)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None:
                print(f"{workload} trace {trace}: exit {done.returncode} {done.stderr[-500:]}")
                correct = False
                continue
            correct &= result["correct"]
            print(f"{workload} trace {trace}: correct={result['correct']}"
                  f" failed {result['failed']}/{result['attempted']}\n")
    return correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if args.workload == "all":
            return 0 if run_all(args.seed, args.seconds) else 1
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
