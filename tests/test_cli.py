"""End-to-end tests for the pipeline CLI: artifact inventory, byte-level
determinism across reruns and worker counts, stage isolation, input
validation, exit codes, and the simulate subcommand."""

import hashlib
import importlib.util
import inspect
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from echospread import cli, ingest, lasso, virality
from echospread.cli import (
    EXIT_BUG,
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    STAGES,
    PipelineConfig,
    _config_from_args,
    _exit_code_for,
    _sim_config,
    build_parser,
    main,
)
from echospread.labels import read_features_csv
from echospread.lasso import ConvergenceError
from echospread.sim import (
    GraphSpec,
    SimConfig,
    generate_world,
    recovery_experiment,
    simulate_corpus,
)
from echospread.virality import Boundary, ViralityEstimate

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CONFIG = FIXTURES / "config.json"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ARTIFACTS = frozenset(
    {
        "filtered.jsonl",
        "activities.csv",
        "retweet_edges.csv",
        "partition.csv",
        "network.dot",
        "ledgers.csv",
        "virality.csv",
        "words_activist.csv",
        "words_skeptic.csv",
        "spread.csv",
        "features_activist.csv",
        "features_skeptic.csv",
        "regress_activist.csv",
        "regress_skeptic.csv",
        "cv_curve_activist.csv",
        "cv_curve_skeptic.csv",
        "manifest.json",
    }
)

STAGE_NAMES = tuple(name for name, _ in STAGES)

# The stage modules, those of ``cli._DEFERRED``, that each stage subcommand loads.
STAGE_LOADS = {
    "ingest": [],
    "network": [],
    "partition": [],
    "virality": ["exposure", "virality"],
    "words": ["textstats"],
    "spread": ["textstats"],
    "labels": ["labels", "virality"],
    "regress": ["labels", "lasso", "virality"],
}

# sha256 of each artifact of `run` on the fixture config, manifest.json
# without its library versions; computed before activities became one array,
# except the CV curves, which moved by at most 4.8e-6 relative when the lasso
# path solves gained the Newton finish.
FIXTURE_DIGESTS = {
    "activities.csv": "14cdd249ec59d7f0ecb932d7bf006395f56504e9e725bba1655452e43b178a34",
    "cv_curve_activist.csv": "d232c4b96b6984b0f00a6fbb4672c0fdece15b77dbf54ea8f0ac85ddf9438332",
    "cv_curve_skeptic.csv": "b726dc9e64347da9926fcb75db26602742305546f256199de892e89842f309f8",
    "features_activist.csv": "35b5394f3478d78e801a183d7a0e3fa32cadb2599e04336b89a4b8e596994a2d",
    "features_skeptic.csv": "38a86c58e0dbce175eed5901727933e195dc7463f02ea4481bda3c1a4141e59c",
    "filtered.jsonl": "77deafc6732f42384bb9535cb744aa721ebf7cae73e2d2ccb61d0bba104970cc",
    "ledgers.csv": "2073a19cde812d9b89d0667e87bb6c506bcf51e4cd5bfbf3f4ca6ac2a6293263",
    "manifest.json": "b7644ff6387257a554fa0631b7a4d1b38ee2a7ea54ac9d2feaead8039d1b8d89",
    "network.dot": "0ca5952b892e3f980ff3c0e7f552b56c58879d682f1a4c68465e0f7eb30f2296",
    "partition.csv": "bc856b0727fa0d31b06e639aa59914ca28f00b4d7124c739f9e21c12f15d8199",
    "regress_activist.csv": "9929977072412bbab04757ac05f98927a3249dece3c13e96441085dd75a95ae6",
    "regress_skeptic.csv": "3798827025ba98227197f0afd289804a240fc417a754d57b4ebc722f144a637c",
    "retweet_edges.csv": "74e7158548530bc2c856b62c321ba33b1c0efc6c0ee20f91cdfb214817f7538f",
    "spread.csv": "59c968b83f049d740663d337d1df83ea5f0be2f5aeda9dcce0a34fdea28fd5e3",
    "virality.csv": "1c882ea3eae397f2d203058914b542082a0377ddd05558547da3e65519220d22",
    "words_activist.csv": "517f06ae1d42b4041ef2b1fb27366d36206848e0892dc8a156223bfdad77167e",
    "words_skeptic.csv": "f7870ecc8c14d4671fa606d14f0f5c929bddb7f75f8fbaa1abdcbdd99312acd9",
}

# sha256 of each artifact of `run` on the benchmark world, `WorldSpec()` of
# perfbench/world.py at seed 1, manifest.json without its library versions.
WORLD_DIGESTS = {
    "activities.csv": "e2807fe62ae2656ce85e34591ad8861bab1e7dae555af7b1b302ccdf1f4ae328",
    "cv_curve_activist.csv": "6a651c6b61fad68dcc95f586f0e5d86773f4bea99c102c3b66a077a3c65c53ee",
    "cv_curve_skeptic.csv": "476ff93f4d61de6046e26d381f4cdd4db4e742d1d65d517619bc7f9e78fb3a93",
    "features_activist.csv": "050e8cf6398351e46cf043caaad3b63d52bd90fe40dd5fabe157463c39f87b0d",
    "features_skeptic.csv": "2f6ea882dcc6516ae5812751794f9a91ca094b51e96eadb083d1eb32ec604f9c",
    "filtered.jsonl": "e5f20e00de7b702fd23bab62115e38bc66c13baadc7912ad246a5ee9b99c4d45",
    "ledgers.csv": "9e75c69a98bf7b82c5d5f5aa164252a6926ff52febdb2e06d24c0ba1f2696782",
    "manifest.json": "52c01a980967c9a3109003ac431451291bbbdddbb80058c7ca8fdc66db539157",
    "network.dot": "78d0eb691a396fa2d313325dc29b68b1cb6279d626a9927f8a566cb6dd6c9131",
    "partition.csv": "b9b8db7528eaf2924ed44a265fd98eeb090d0e6be62c7e6d7dbb16749294bf7b",
    "regress_activist.csv": "0fbd125aa9125f76914f00a16d16a18a728c034776cfbf136a1c5cf1dfc10fc9",
    "regress_skeptic.csv": "a99e2b8ec76b34fc02d2c634a9bf47399cf61f74870c1539cffc60a8057f0702",
    "retweet_edges.csv": "2f652a46579cea27e41553d5263d276826d9a1ad527a0a01c492dd160fad9127",
    "spread.csv": "c10df66911129d9520f15cbb061db948c3dbfaafc93241b0d7af2b219ab47456",
    "virality.csv": "8b18e4117be4a5f2b5967f93b8aa19527c0897cdc4c199a27be1b3218345ed93",
    "words_activist.csv": "4e172bccdb8daa504775562f883798ca9f3dc46f3d760d9e7bfb91e4cd2cbc0a",
    "words_skeptic.csv": "d808bec6caeaf584178d54c0162747d76cb31e46f08c6fcb8553404eb3ab0a7c",
}

# The CV-selected penalty of each group on the fixture config; the lasso's
# Newton finish left both as the ISTA-only path solves chose them.
FIXTURE_LAMBDAS = {"activist": "0x1.e456a87767303p-4", "skeptic": "0x1.6aac720124ce5p-4"}


FIXTURE_SHEETS = [str(FIXTURES / p) for p in json.loads(CONFIG.read_text())["labels"]]


def fixture_config(tmp_path, **changes):
    """The fixture config with absolute input paths and ``changes`` applied,
    written to ``tmp_path / "config.json"``."""
    raw = json.loads(CONFIG.read_text())
    raw.update({"tweets": str(FIXTURES / raw["tweets"]), "edges": str(FIXTURES / raw["edges"]),
                "labels": FIXTURE_SHEETS, **changes})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    return config


def run_cli(argv, hash_seed="1"):
    """Invoke the CLI in a subprocess so hash randomization is exercised."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-m", "echospread.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()}


def artifact_digests(root: Path) -> dict[str, str]:
    """sha256 of each artifact in ``root``, manifest.json without its library
    versions."""
    digests = {}
    for name, data in tree_bytes(root).items():
        if name == "manifest.json":
            manifest = json.loads(data)
            del manifest["versions"]
            data = (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode()
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    out = tmp_path_factory.mktemp("baseline")
    proc = run_cli(["run", "--config", str(CONFIG), "--out", str(out)])
    assert proc.returncode == EXIT_OK, proc.stderr
    return out


class TestPipelineArtifacts:
    def test_full_run_writes_exact_artifact_set(self, baseline):
        assert {p.name for p in baseline.iterdir()} == ARTIFACTS

    def test_manifest_records_every_stage(self, baseline):
        manifest = json.loads((baseline / "manifest.json").read_text())
        assert set(manifest["stages"]) == set(STAGE_NAMES)
        assert "failure" not in manifest

    def test_manifest_config_echo_excludes_run_location(self, baseline):
        config = json.loads((baseline / "manifest.json").read_text())["config"]
        assert "out" not in config
        assert "workers" not in config
        assert config["threshold"] == 2

    def test_manifest_pins_versions(self, baseline):
        versions = json.loads((baseline / "manifest.json").read_text())["versions"]
        assert set(versions) == {"echospread", "numpy", "python"}

    def test_partition_recovers_factions(self, baseline):
        rows = (baseline / "partition.csv").read_text().strip().splitlines()[1:]
        groups = dict(line.split(",") for line in rows)
        activists = {u for u, g in groups.items() if g == "0"}
        skeptics = {u for u, g in groups.items() if g == "1"}
        assert all(u.startswith("a") for u in activists)
        assert all(u.startswith("s") for u in skeptics)

    def test_group_names_follow_hoax_pair(self, baseline):
        manifest = json.loads((baseline / "manifest.json").read_text())
        names = manifest["stages"]["partition"]["group_names"]
        assert names == {"0": "activist", "1": "skeptic"}

    def test_artifacts_match_pinned_digests(self, baseline):
        assert artifact_digests(baseline) == FIXTURE_DIGESTS

    def test_selected_lambdas_pinned(self, baseline):
        regress = json.loads((baseline / "manifest.json").read_text())["stages"]["regress"]
        assert {g: regress[g]["lambda"].hex() for g in FIXTURE_LAMBDAS} == FIXTURE_LAMBDAS

    def test_cv_paths_run_few_ista_solves(self, baseline, monkeypatch):
        """The fixture's two CV paths (5 folds x 60 lambdas each) call
        ``_solve_std`` only where Newton continuation cannot go on; the
        per-lambda loop called it at all 597 grid points below a fold's
        lambda_top."""
        solve, calls = lasso._solve_std, []
        monkeypatch.setattr(lasso, "_solve_std", lambda *args: calls.append(1) or solve(*args))
        config = json.loads(CONFIG.read_text())
        cfg = lasso.LassoConfig(config["lambda_grid"], config["folds"], config["seed"])
        for name, pinned in FIXTURE_LAMBDAS.items():
            X, y, groups, _ = read_features_csv(baseline / f"features_{name}.csv")
            assert lasso.cv_select_lambda(X, y, groups, cfg)[0].hex() == pinned
        assert len(calls) <= 20


class TestByteDeterminism:
    def test_rerun_is_byte_identical(self, baseline, tmp_path):
        out = tmp_path / "again"
        proc = run_cli(
            ["run", "--config", str(CONFIG), "--out", str(out)], hash_seed="31"
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert tree_bytes(out) == tree_bytes(baseline)

    def test_worker_count_does_not_change_bytes(self, baseline, tmp_path):
        out = tmp_path / "pool"
        proc = run_cli(
            ["run", "--config", str(CONFIG), "--out", str(out), "--workers", "8"],
            hash_seed="97",
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert tree_bytes(out) == tree_bytes(baseline)

    def test_spawned_workers_do_not_change_bytes(self, baseline, tmp_path):
        """Under ``spawn`` the workers inherit nothing: the scoring context
        reaches them pickled, as on platforms without ``fork``."""
        out = tmp_path / "spawn"
        script = (
            "import multiprocessing, sys\n"
            "from echospread.cli import main\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('spawn')\n"
            "    sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "run", "--config", str(CONFIG), "--out", str(out),
             "--workers", "2"],
            capture_output=True, text=True, check=False, timeout=300,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert tree_bytes(out) == tree_bytes(baseline)


class TestStageIsolation:
    @pytest.mark.parametrize("stage", STAGE_NAMES)
    def test_stage_rerun_reproduces_pipeline_bytes(self, baseline, tmp_path, stage):
        out = tmp_path / stage
        shutil.copytree(baseline, out)
        code = main([stage, "--config", str(CONFIG), "--out", str(out)])
        assert code == EXIT_OK
        assert tree_bytes(out) == tree_bytes(baseline)

    @pytest.mark.parametrize("stage", STAGE_NAMES)
    def test_stage_subcommand_in_a_fresh_interpreter(self, baseline, tmp_path, stage):
        """Each stage binds the stage modules it calls when it starts, and
        loads no other; in this interpreter earlier tests have bound them all
        already."""
        out = tmp_path / stage
        shutil.copytree(baseline, out)
        probe = {f"echospread.{name}" for name in cli._DEFERRED} | {"multiprocessing"}
        code = (
            "import json, sys\n"
            "from echospread.cli import main\n"
            "code = main(sys.argv[1:])\n"
            f"print(json.dumps(sorted(set(sys.modules) & {probe!r})))\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, stage, "--config", str(CONFIG), "--out", str(out)],
            capture_output=True, text=True, check=False,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert tree_bytes(out) == tree_bytes(baseline)
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded == [f"echospread.{name}" for name in STAGE_LOADS[stage]]

    def test_partition_readers_do_not_read_the_retweet_network(self, baseline, tmp_path):
        out = tmp_path / "no_network"
        shutil.copytree(baseline, out)
        (out / "retweet_edges.csv").unlink()
        for stage in ("words", "spread"):
            assert main([stage, "--config", str(CONFIG), "--out", str(out)]) == EXIT_OK


class TestStaleIntermediates:
    def test_run_overwrites_stale_intermediates(self, baseline, tmp_path):
        """``run`` into a directory holding valid but different intermediates
        must not read any of them before its own stage rewrites it."""
        out = tmp_path / "stale"
        shutil.copytree(baseline, out)
        partition = (out / "partition.csv").read_text().splitlines()
        swapped = [line[:-1] + str(1 - int(line[-1])) for line in partition[1:]]
        (out / "partition.csv").write_text("\n".join(partition[:1] + swapped) + "\n")
        for name in ("filtered.jsonl", "virality.csv", "activities.csv"):
            lines = (out / name).read_text().splitlines(keepends=True)
            (out / name).write_text("".join(lines[: len(lines) // 2]))
        code = main(["run", "--config", str(CONFIG), "--out", str(out)])
        assert code == EXIT_OK
        assert tree_bytes(out) == tree_bytes(baseline)


class TestParseOnce:
    def test_run_parses_only_the_tweets_file(self, monkeypatch, tmp_path):
        parsed = []
        real = cli.parse_records

        def counting(path):
            parsed.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(cli, "parse_records", counting)
        assert main(["run", "--config", str(CONFIG), "--out", str(tmp_path)]) == EXIT_OK
        assert parsed == ["tweets.jsonl"]

    def test_run_reads_no_retweet_edges(self, monkeypatch, tmp_path):
        """``network`` hands its component to ``partition``, ``partition``
        its groups to the later stages, and ``ingest`` its activity counts
        to ``virality``."""
        read = []
        real = cli.read_rows

        def recording(path, header):
            read.append(Path(path).name)
            return real(path, header)

        monkeypatch.setattr(cli, "read_rows", recording)
        monkeypatch.setattr(virality, "read_rows", recording)
        assert main(["run", "--config", str(CONFIG), "--out", str(tmp_path)]) == EXIT_OK
        assert "retweet_edges.csv" not in read
        assert "activities.csv" not in read
        assert "partition.csv" not in read
        assert "virality.csv" in read  # the recorder sees the stages' reads

    def test_each_command_walks_the_filtered_corpus_once(self, baseline, monkeypatch, tmp_path):
        """The seed pairs and the cascades share one chain walk: the one
        that filters the whole corpus in ``run`` and ``ingest``, one of the
        filtered records in the other stages; ``regress`` reads no record."""
        walks = []
        real = ingest.chain_roots

        def counting(records, *args, **kwargs):
            walks.append(len(records))
            return real(records, *args, **kwargs)

        monkeypatch.setattr(ingest, "chain_roots", counting)
        monkeypatch.setattr(cli, "chain_roots", counting)
        counts = {}
        for command in ("run", *STAGE_NAMES):
            out = tmp_path / command
            shutil.copytree(baseline, out)
            walks.clear()
            assert main([command, "--config", str(CONFIG), "--out", str(out)]) == EXIT_OK
            assert tree_bytes(out) == tree_bytes(baseline)
            counts[command] = len(walks)
        assert counts == {"run": 1, "ingest": 1, "network": 1, "partition": 1, "virality": 1,
                          "words": 1, "spread": 1, "labels": 1, "regress": 0}

    def test_run_drops_the_chain_roots_after_network(self, monkeypatch, tmp_path):
        """Nothing reads the roots once the seed pairs and the cascades are
        built, so they do not stay alive for the later stages."""
        held = {}
        real = cli.run_stage

        def recording(ws, name):
            code = real(ws, name)
            held[name] = "roots" in vars(ws)
            return code

        monkeypatch.setattr(cli, "run_stage", recording)
        assert main(["run", "--config", str(CONFIG), "--out", str(tmp_path)]) == EXIT_OK
        assert held == {"ingest": True, **dict.fromkeys(STAGE_NAMES[1:], False)}

    def test_run_maps_no_name_to_an_id_after_the_cascades(self, baseline, monkeypatch, tmp_path):
        """The seed-pair users, the retweet network and the groups stay on the
        user table's ids; only a read-back looks a name up."""

        def refusing(users, name):
            raise ValueError(f"table_id called for {name!r}")

        monkeypatch.setattr(cli, "table_id", refusing)
        out = tmp_path / "run"
        assert main(["run", "--config", str(CONFIG), "--out", str(out)]) == EXIT_OK
        assert tree_bytes(out) == tree_bytes(baseline)
        out = tmp_path / "partition"
        shutil.copytree(baseline, out)
        assert main(["partition", "--config", str(CONFIG), "--out", str(out)]) == EXIT_INPUT
        failure = json.loads((out / "manifest.json").read_text())["failure"]["error"]
        assert "retweet_edges.csv" in failure and "table_id called" in failure


class TestProcessFootprint:
    def test_run_does_not_import_numpy_random(self, baseline, tmp_path):
        """The CV folds are drawn without ``numpy.random``, which costs a
        process about 6 MB resident."""
        argv = ["run", "--config", str(CONFIG), "--out", str(tmp_path / "out")]
        code = (
            "import sys\n"
            "from echospread import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random is loaded'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=False
        )
        assert proc.returncode == 0, proc.stderr
        assert tree_bytes(tmp_path / "out") == tree_bytes(baseline)


class TestBenchmarkWorld:
    """The benchmark's two-block world, about 15k records, whose retweet
    network gives the partitioner and the scoring pool work that the
    fixture's 39 nodes do not."""

    @pytest.fixture(scope="class")
    def world(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("world")
        spec = importlib.util.spec_from_file_location("_perfbench_world", PERFBENCH / "world.py")
        world = importlib.util.module_from_spec(spec)
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(sys.modules, spec.name, world)
            spec.loader.exec_module(world)
            world.generate(world.WorldSpec(), 1, root)
        return root / "config.json"

    def test_run_matches_pinned_digests(self, world, tmp_path):
        assert main(["run", "--config", str(world), "--out", str(tmp_path)]) == EXIT_OK
        assert artifact_digests(tmp_path) == WORLD_DIGESTS

    def test_stage_subcommands_with_two_workers_match_pinned_digests(self, world, tmp_path):
        out = tmp_path / "stages"
        for stage in STAGE_NAMES:
            argv = [stage, "--config", str(world), "--out", str(out), "--workers", "2"]
            assert main(argv) == EXIT_OK, stage
        assert artifact_digests(out) == WORLD_DIGESTS


class TestBenchmarkSpanTargets:
    """The benchmark's traced mode wraps ``echospread`` names and the
    two-parameter ``run_stage`` from outside the package."""

    @pytest.fixture
    def spans(self, monkeypatch):
        path = PERFBENCH / "spans.py"
        spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, spans)
        spec.loader.exec_module(spans)
        return spans

    def test_wrapped_names_resolve_and_run_stage_takes_two_parameters(self, spans):
        for module, attr, _, _ in spans.WRAPPED:
            assert callable(getattr(importlib.import_module(module), attr, None)), (
                f"{module}.{attr}"
            )
        assert len(inspect.signature(cli.run_stage).parameters) == 2

    def test_virality_stage_calls_the_traced_mle_once_per_ledger(
        self, spans, baseline, tmp_path
    ):
        out = tmp_path / "traced"
        shutil.copytree(baseline, out)
        with spans.Tracer().installed() as tracer:
            assert main(["virality", "--config", str(CONFIG), "--out", str(out)]) == EXIT_OK
        metrics = tracer.metrics()
        ledgers = json.loads((out / "manifest.json").read_text())["stages"]["virality"]["ledgers"]
        assert ledgers > 0
        assert metrics["virality.mle_virality.calls"] == ledgers
        assert metrics["exposure.build_exposure_ledger.calls"] == ledgers
        assert tree_bytes(out) == tree_bytes(baseline)

    def test_traced_run_of_the_fixture_feeds_the_hooks(self, spans, baseline, tmp_path):
        """The whole pipeline under the tracer: the same bytes, and the hooks
        read the partition's cut, the feature matrices and every cascade's
        scope."""
        out = tmp_path / "traced"
        with spans.Tracer().installed() as tracer:
            assert main(["run", "--config", str(CONFIG), "--out", str(out)]) == EXIT_OK
        assert tree_bytes(out) == tree_bytes(baseline)
        metrics = tracer.metrics()
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        labels = stages["labels"]
        assert metrics["graph.cut_size"] == stages["partition"]["cut_size"]
        assert metrics["labels.rows"] == labels["rows_activist"] + labels["rows_skeptic"]
        scopes = sum(span.name == "exposure.choose_scope" for span in tracer.spans)
        assert scopes == stages["network"]["cascades"]
        unscorable = stages["virality"]["unscorable_cascades"]
        assert metrics["exposure.unscorable_ratio"] == unscorable / scopes

    def test_recovery_hooks_read_the_simulated_cascades(self, spans):
        """The counter hooks on the ``sim`` path read ``records`` and
        ``exposed`` from what the wrapped functions return."""
        config = SimConfig(
            graph=GraphSpec(n=60, p=0.2), r_values=(0.2, 0.4), cascades_per_r=3, master_seed=1
        )
        sims, _ = simulate_corpus(generate_world(config))
        with spans.Tracer().installed() as tracer:
            recovery_experiment(config)
        metrics = tracer.metrics()
        for name in ("sim.simulate_cascade", "ingest.build_cascades",
                     "exposure.build_exposure_ledger", "virality.mle_virality"):
            assert metrics[f"{name}.calls"] == len(sims), name
        assert metrics["sim.records"] == sum(len(sim.records) for sim in sims)
        assert metrics["exposure.trials"] == sum(len(sim.exposed) for sim in sims)


class TestScoreTask:
    def test_only_rows_and_estimates_leave_the_task(self, baseline, tmp_path, monkeypatch):
        """The pool gets cascade indices and returns, per scorable cascade,
        a row of plain cells and an estimate: no ledger, array or table."""
        calls = []
        real = cli.parallel_map

        def spy(fn, items, workers, initializer=None, initargs=()):
            results = real(fn, items, workers, initializer, initargs)
            calls.append((fn, list(items), results))
            return results

        monkeypatch.setattr(cli, "parallel_map", spy)
        out = tmp_path / "spied"
        shutil.copytree(baseline, out)
        assert main(["virality", "--config", str(CONFIG), "--out", str(out)]) == EXIT_OK
        ((fn, items, results),) = calls
        assert fn is cli._score_task
        assert items == list(range(len(items)))
        scored = [result for result in results if result is not None]
        assert scored
        for result in scored:
            assert type(result) is tuple and len(result) == 2
            row, est = result
            assert type(row) is list
            assert {type(cell) for cell in row} <= {str, int}
            assert type(est) is ViralityEstimate
            cells = {type(getattr(est, f.name)) for f in fields(est)}
            assert cells <= {str, int, float, type(None), Boundary}
        assert tree_bytes(out) == tree_bytes(baseline)


class TestParallelMap:
    def test_pool_starts_no_more_processes_than_items(self, monkeypatch):
        asked = []

        class RecordingPool:
            """Records the process count asked for and maps in this process."""

            def __init__(self, processes, initializer, initargs):
                asked.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        ready = []
        assert cli.parallel_map(abs, [-1, -2, -3], 8, ready.append, ("init",)) == [1, 2, 3]
        assert asked == [3] and ready == ["init"]
        assert cli.parallel_map(abs, [-4], 8, ready.append, ("again",)) == [4]
        assert asked == [3] and ready == ["init", "again"]


class TestInputValidation:
    def test_missing_edges_exits_one_and_names_input(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "tweets": str(FIXTURES / "tweets.jsonl"),
                    "edges": "no_such_edges.csv",
                    "labels": [str(FIXTURES / "labels_c1.csv")],
                }
            )
        )
        out = tmp_path / "out"
        proc = run_cli(["run", "--config", str(config), "--out", str(out)])
        assert proc.returncode == EXIT_INPUT
        assert "no_such_edges.csv" in proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failure"]["stage"] == "validate-inputs"
        assert "edges" in manifest["failure"]["error"]

    def test_stage_before_its_inputs_exist_exits_one(self, tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        code = main(["network", "--config", str(CONFIG), "--out", str(out)])
        assert code == EXIT_INPUT

    def test_read_back_partition_with_an_empty_group_exits_one(
        self, baseline, tmp_path, capsys
    ):
        out = tmp_path / "one_group"
        shutil.copytree(baseline, out)
        rows = (out / "partition.csv").read_text().splitlines()
        (out / "partition.csv").write_text(
            "\n".join(rows[:1] + [line[:-1] + "0" for line in rows[1:]]) + "\n"
        )
        code = main(["spread", "--config", str(CONFIG), "--out", str(out)])
        assert code == EXIT_INPUT
        assert "both groups must be nonempty" in capsys.readouterr().err

    @pytest.mark.parametrize("group", ["2", "-1"])
    @pytest.mark.parametrize("stage", ["virality", "spread", "words"])
    def test_read_back_partition_with_a_group_other_than_0_or_1_exits_one(
        self, baseline, tmp_path, capsys, stage, group
    ):
        """One author and one retweeter get the group: the author reaches
        ``words``, the retweeter the exposure ledgers of ``virality`` and
        ``spread``."""
        out = tmp_path / "bad_group"
        shutil.copytree(baseline, out)
        records = [json.loads(line) for line in (out / "filtered.jsonl").read_text().splitlines()]
        author = next(r["user_id"] for r in records if r["retweet_of"] is None)
        retweeter = next(r["user_id"] for r in records if r["retweet_of"] is not None)
        rows = (out / "partition.csv").read_text().splitlines()
        changed = [
            f"{line.split(',')[0]},{group}" if line.split(",")[0] in (author, retweeter) else line
            for line in rows[1:]
        ]
        assert changed != rows[1:]
        (out / "partition.csv").write_text("\n".join(rows[:1] + changed) + "\n")
        code = main([stage, "--config", str(CONFIG), "--out", str(out)])
        assert code == EXIT_INPUT
        assert "partition.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["virality", "spread", "words"])
    def test_read_back_partition_with_a_user_outside_the_table_exits_one(
        self, baseline, tmp_path, capsys, stage
    ):
        """Every user of ``partition.csv`` must author a record of
        ``filtered.jsonl``: the groups are held on that table."""
        out = tmp_path / "outside"
        shutil.copytree(baseline, out)
        with open(out / "partition.csv", "a", encoding="utf-8") as fh:
            fh.write("zz9,0\n")
        code = main([stage, "--config", str(CONFIG), "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "partition.csv" in err and "'zz9' is not in the user table" in err

    @pytest.mark.parametrize("cell", ["01", " 1", "1.0", ""])
    def test_read_back_partition_group_cell_must_be_0_or_1(
        self, baseline, tmp_path, capsys, cell
    ):
        out = tmp_path / "cell"
        shutil.copytree(baseline, out)
        header, first, *rest = (out / "partition.csv").read_text().splitlines()
        first = f"{first.split(',')[0]},{cell}"
        (out / "partition.csv").write_text("\n".join([header, first, *rest]) + "\n")
        assert main(["spread", "--config", str(CONFIG), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "partition.csv" in err and "not 0 or 1" in err

    def test_duplicated_retweet_edges_change_no_output(self, baseline, tmp_path):
        out = tmp_path / "doubled_edges"
        shutil.copytree(baseline, out)
        rows = (out / "retweet_edges.csv").read_text().splitlines(keepends=True)
        (out / "retweet_edges.csv").write_text(
            rows[0] + "".join(row for row in rows[1:] for _ in range(2))
        )
        assert main(["partition", "--config", str(CONFIG), "--out", str(out)]) == EXIT_OK
        doubled = tree_bytes(out)
        assert doubled.pop("retweet_edges.csv") != baseline.joinpath("retweet_edges.csv").read_bytes()
        expected = tree_bytes(baseline)
        del expected["retweet_edges.csv"]
        assert doubled == expected

    @pytest.mark.parametrize("bad", ["self-loop", "descending", "outside"])
    def test_retweet_edge_row_out_of_order_exits_one_and_is_recorded(
        self, baseline, tmp_path, capsys, bad
    ):
        out = tmp_path / bad
        shutil.copytree(baseline, out)
        rows = (out / "retweet_edges.csv").read_text().splitlines()
        a, b = rows[1].split(",")
        bad_rows = {"self-loop": f"{a},{a}", "descending": f"{b},{a}", "outside": f"{a},zz9"}
        rows.append(bad_rows[bad])
        (out / "retweet_edges.csv").write_text("\n".join(rows) + "\n")
        code = main(["partition", "--config", str(CONFIG), "--out", str(out)])
        assert code == EXIT_INPUT
        assert "retweet_edges.csv" in capsys.readouterr().err
        failure = json.loads((out / "manifest.json").read_text())["failure"]
        assert failure["stage"] == "partition" and "retweet_edges.csv" in failure["error"]

    @pytest.mark.parametrize(
        "name, row, stage",
        [
            ("partition.csv", "s19,0", "spread"),
            ("activities.csv", "a01,1", "virality"),
            ("virality.csv", "t000,0,1,10,11,0.153205252926,-1.87597673424,interior", "labels"),
        ],
    )
    def test_repeated_key_in_a_read_back_exits_one_naming_file_and_key(
        self, baseline, tmp_path, capsys, name, row, stage
    ):
        """The first cell of ``row`` already keys a row of ``name``."""
        out = tmp_path / "repeated"
        shutil.copytree(baseline, out)
        key = row.split(",")[0]
        assert f"\n{key}," in (out / name).read_text()
        with open(out / name, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        assert main([stage, "--config", str(CONFIG), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert name in err and f"{key!r} is repeated" in err

    @pytest.mark.parametrize("cell", ["0_9", " 9", "+9", "\u0669"])
    def test_raw_activity_cell_must_be_ascii_digits(self, baseline, tmp_path, capsys, cell):
        """``int`` reads each of these cells as 9; the file holds only digits."""
        out = tmp_path / "raw"
        shutil.copytree(baseline, out)
        text = (out / "activities.csv").read_text(encoding="utf-8")
        assert "\na01,9\n" in text
        (out / "activities.csv").write_text(
            text.replace("\na01,9\n", f"\na01,{cell}\n"), encoding="utf-8"
        )
        assert main(["virality", "--config", str(CONFIG), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "activities.csv" in err and f"{cell!r} of 'a01' is not" in err

    def test_virality_csv_with_wrong_header_exits_one(self, baseline, tmp_path, capsys):
        out = tmp_path / "bad_header"
        shutil.copytree(baseline, out)
        lines = (out / "virality.csv").read_text().splitlines(keepends=True)
        (out / "virality.csv").write_text(lines[0].replace("r_hat", "rhat") + "".join(lines[1:]))
        code = main(["labels", "--config", str(CONFIG), "--out", str(out)])
        assert code == EXIT_INPUT
        assert "unexpected header" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "column, cell",
        [
            ("group", "7"),
            ("group", "x"),
            ("failures", "\u0669"),
            ("exposed", " 11"),
            ("r_hat", ""),
            # ``float`` reads these three as the written 0.775327758802
            ("r_hat", " 0.775327758802"),
            ("r_hat", "0.77_5327758802"),
            ("r_hat", "+0.775327758802"),
            ("ln_r", "-0.5"),  # a number, but not the log of r_hat
            ("ln_r", "inf"),
            ("ln_r", "x"),
            ("boundary", "bogus"),
            ("boundary", "zero_successes"),
        ],
    )
    def test_virality_csv_bad_cell_exits_one_naming_file_and_tweet(
        self, baseline, tmp_path, capsys, column, cell
    ):
        """One cell of the first row, an interior estimate, is edited; a
        well-formed but impossible cell fails like an unparsable one."""
        out = tmp_path / "bad_cell"
        shutil.copytree(baseline, out)
        path = out / "virality.csv"
        header, first, *rows = path.read_text(encoding="utf-8").splitlines()
        cells = first.split(",")
        assert cells[:1] + cells[5:] == ["t000", "0.775327758802", "-0.254469424449", "interior"]
        cells[header.split(",").index(column)] = cell
        path.write_text("\n".join([header, ",".join(cells), *rows]) + "\n", encoding="utf-8")
        assert main(["labels", "--config", str(CONFIG), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and f"tweet {cells[0]!r}" in err

    def test_features_csv_with_wrong_response_column_exits_one(
        self, baseline, tmp_path, capsys
    ):
        out = tmp_path / "bad_features"
        shutil.copytree(baseline, out)
        path = out / "features_activist.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0].replace("ln_r", "not_the_response") + "".join(lines[1:]))
        code = main(["regress", "--config", str(CONFIG), "--out", str(out)])
        assert code == EXIT_INPUT
        assert "unexpected header" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["blank line", "one cell", "four cells", "one cell more"])
    def test_features_csv_row_of_another_width_exits_one_naming_the_file(
        self, baseline, tmp_path, capsys, edit
    ):
        out = tmp_path / "width"
        shutil.copytree(baseline, out)
        path = out / "features_activist.csv"
        header, *rows = path.read_text().splitlines()
        cells = rows[-1].split(",")
        extra = {
            "blank line": "",
            "one cell": "t999",
            "four cells": f"t999,{cells[1]},{cells[2]},{cells[-1]}",
            "one cell more": f"t999,{','.join(cells[1:])},0",
        }[edit]
        path.write_text("\n".join([header, *rows, extra]) + "\n")
        assert main(["regress", "--config", str(CONFIG), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "features_activist.csv" in err and "cells" in err

    @pytest.mark.parametrize("edit", ["blank line", "one cell more"])
    @pytest.mark.parametrize(
        "name, stage",
        [
            ("activities.csv", "virality"),
            ("retweet_edges.csv", "partition"),
            ("partition.csv", "spread"),
            ("virality.csv", "labels"),
        ],
    )
    def test_read_back_row_of_another_width_exits_one_naming_the_file(
        self, baseline, tmp_path, capsys, name, stage, edit
    ):
        out = tmp_path / "width"
        shutil.copytree(baseline, out)
        path = out / name
        header, *rows = path.read_text().splitlines()
        extra = "" if edit == "blank line" else rows[-1] + ",0"
        path.write_text("\n".join([header, *rows, extra]) + "\n")
        assert main([stage, "--config", str(CONFIG), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and "cells" in err

    @pytest.mark.parametrize(
        "edit", ["reversed", "first two swapped", "first repeated", "last repeated"]
    )
    def test_features_csv_rows_out_of_the_writers_order_exit_one(
        self, baseline, tmp_path, capsys, edit
    ):
        """The CV folds follow row positions, so the reader takes only the
        writer's order: strictly ascending ``tweet_id``."""
        out = tmp_path / "order"
        shutil.copytree(baseline, out)
        path = out / "features_activist.csv"
        header, *rows = path.read_text().splitlines()
        rows = {
            "reversed": rows[::-1],
            "first two swapped": [rows[1], rows[0], *rows[2:]],
            "first repeated": [rows[0], *rows],
            "last repeated": [*rows, rows[-1]],
        }[edit]
        path.write_text("\n".join([header, *rows]) + "\n")
        assert main(["regress", "--config", str(CONFIG), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "features_activist.csv" in err and "repeated or out of order" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "x"])
    @pytest.mark.parametrize("column", [3, -1], ids=["value", "ln_r"])
    def test_features_csv_cell_that_is_not_a_finite_number_exits_one(
        self, baseline, tmp_path, capsys, column, cell
    ):
        """A bad cell is an input error naming the file and the row, not a
        numerical failure of the fit."""
        out = tmp_path / "cell"
        shutil.copytree(baseline, out)
        path = out / "features_activist.csv"
        header, first, *rows = path.read_text().splitlines()
        cells = first.split(",")
        cells[column] = cell
        path.write_text("\n".join([header, ",".join(cells), *rows]) + "\n")
        assert main(["regress", "--config", str(CONFIG), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "features_activist.csv" in err and repr(cells[0]) in err

    def test_filtered_jsonl_with_a_repeated_tweet_id_exits_one(self, baseline, tmp_path, capsys):
        """``parse_records`` keeps the first of two records with one id; in an
        intermediate that is corruption, as a malformed line is."""
        out = tmp_path / "repeated"
        shutil.copytree(baseline, out)
        path = out / "filtered.jsonl"
        text = path.read_text(encoding="utf-8")
        records = map(json.loads, text.splitlines())
        copy = next(obj for obj in records if obj["tweet_id"] == "t000r0")
        assert copy["user_id"] != "a05"
        copy["user_id"] = "a05"
        path.write_text(json.dumps(copy, sort_keys=True) + "\n" + text, encoding="utf-8")
        assert main(["virality", "--config", str(CONFIG), "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "filtered.jsonl" in err and "1 repeated tweet_id" in err

    def test_negative_activity_count_exits_one(self, baseline, tmp_path, capsys):
        out = tmp_path / "negative"
        shutil.copytree(baseline, out)
        rows = (out / "activities.csv").read_text().splitlines()
        user = rows[1].split(",")[0]
        (out / "activities.csv").write_text("\n".join(rows[:1] + [f"{user},-1"] + rows[2:]) + "\n")
        code = main(["virality", "--config", str(CONFIG), "--out", str(out)])
        assert code == EXIT_INPUT
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "group_only, named",
        [
            ({"activists": ["crowd_size"]}, "activists"),
            ({"activist": ["crowd_sise"]}, "crowd_sise"),
        ],
        ids=["unknown-group", "unknown-feature"],
    )
    def test_unknown_group_only_features_exit_one_and_are_recorded(
        self, baseline, tmp_path, capsys, group_only, named
    ):
        config = fixture_config(tmp_path, group_only_features=group_only)
        out = tmp_path / "out"
        shutil.copytree(baseline, out)
        code = main(["labels", "--config", str(config), "--out", str(out)])
        assert code == EXIT_INPUT
        assert named in capsys.readouterr().err
        failure = json.loads((out / "manifest.json").read_text())["failure"]
        assert failure["stage"] == "labels" and named in failure["error"]

    @pytest.mark.parametrize("cell", [" 1", "+1", "-0"])
    def test_label_cell_other_than_0_or_1_exits_one(self, baseline, tmp_path, capsys, cell):
        rows = (FIXTURES / "labels_c1.csv").read_text().splitlines()
        sheet = tmp_path / "labels_c1.csv"
        sheet.write_text("\n".join(rows[:1] + [rows[1][:-1] + cell] + rows[2:]) + "\n")
        config = fixture_config(tmp_path, labels=[str(sheet), *FIXTURE_SHEETS[1:]])
        out = tmp_path / "out"
        shutil.copytree(baseline, out)
        code = main(["labels", "--config", str(config), "--out", str(out)])
        assert code == EXIT_INPUT
        assert "other than 0 or 1" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["same-path", "other-directory"])
    def test_coder_sheet_given_twice_exits_one_and_is_recorded(
        self, baseline, tmp_path, capsys, where
    ):
        """Two sheets named ``labels_c1.csv`` are one coder, c1, wherever they are."""
        again = FIXTURE_SHEETS[0]
        if where == "other-directory":
            (tmp_path / "copy").mkdir()
            again = str(shutil.copy(again, tmp_path / "copy"))
        config = fixture_config(tmp_path, labels=[FIXTURE_SHEETS[0], again])
        out = tmp_path / "out"
        shutil.copytree(baseline, out)
        code = main(["labels", "--config", str(config), "--out", str(out)])
        assert code == EXIT_INPUT
        assert "coder c1" in capsys.readouterr().err
        failure = json.loads((out / "manifest.json").read_text())["failure"]
        assert failure["stage"] == "labels" and "coder c1" in failure["error"]

    @pytest.mark.parametrize("feature", ["author:humor", "hashtags", "crowd_size"])
    def test_label_feature_named_like_a_design_column_exits_one(
        self, baseline, tmp_path, capsys, feature
    ):
        """``humor`` renamed in every sheet: to an author column, a mark
        column, or a second ``crowd_size``."""
        (tmp_path / "sheets").mkdir()
        sheets = []
        for path in map(Path, FIXTURE_SHEETS):
            header, *rows = path.read_text().splitlines()
            header = header.replace(",humor,", f",{feature},")
            sheets.append(tmp_path / "sheets" / path.name)
            sheets[-1].write_text("\n".join([header, *rows]) + "\n")
        config = fixture_config(tmp_path, labels=[str(p) for p in sheets])
        out = tmp_path / "out"
        shutil.copytree(baseline, out)
        code = main(["labels", "--config", str(config), "--out", str(out)])
        assert code == EXIT_INPUT
        assert f"feature {feature!r}" in capsys.readouterr().err

    def test_label_row_with_empty_tweet_id_exits_one_and_is_recorded(
        self, baseline, tmp_path, capsys
    ):
        (tmp_path / "sheets").mkdir()
        sheets = []
        for path in map(Path, FIXTURE_SHEETS):
            sheets.append(tmp_path / "sheets" / path.name)
            sheets[-1].write_text(path.read_text() + ",1,1,1,1\n")
        config = fixture_config(tmp_path, labels=[str(p) for p in sheets])
        out = tmp_path / "out"
        shutil.copytree(baseline, out)
        code = main(["labels", "--config", str(config), "--out", str(out)])
        assert code == EXIT_INPUT
        assert "labels_c1.csv: empty tweet_id" in capsys.readouterr().err
        failure = json.loads((out / "manifest.json").read_text())["failure"]
        assert failure["stage"] == "labels" and "empty tweet_id" in failure["error"]

    def test_label_row_outside_the_corpus_is_skipped_and_counted(self, baseline, tmp_path):
        """A row for a tweet that is not in ``filtered.jsonl`` takes no part
        in the vote, alpha or consensus; the sheets still must align."""
        (tmp_path / "sheets").mkdir()
        sheets = []
        for path in map(Path, FIXTURE_SHEETS):
            sheets.append(tmp_path / "sheets" / path.name)
            sheets[-1].write_text(path.read_text() + "zz9,1,1,1,1\n")
        config = fixture_config(tmp_path, labels=[str(p) for p in sheets])
        out = tmp_path / "out"
        shutil.copytree(baseline, out)
        assert main(["labels", "--config", str(config), "--out", str(out)]) == EXIT_OK
        counts = json.loads((out / "manifest.json").read_text())["stages"]["labels"]
        expected = json.loads((baseline / "manifest.json").read_text())["stages"]["labels"]
        assert expected["labels_outside_corpus"] == 0
        assert counts == {**expected, "labels_outside_corpus": 1}
        after, before = tree_bytes(out), tree_bytes(baseline)
        del after["manifest.json"], before["manifest.json"]
        assert after == before

    def test_one_label_sheet_exits_one_and_is_recorded(self, baseline, tmp_path, capsys):
        config = fixture_config(tmp_path, labels=FIXTURE_SHEETS[:1])
        out = tmp_path / "out"
        shutil.copytree(baseline, out)
        code = main(["labels", "--config", str(config), "--out", str(out)])
        assert code == EXIT_INPUT
        assert "at least two coder sheets" in capsys.readouterr().err
        failure = json.loads((out / "manifest.json").read_text())["failure"]
        assert failure["stage"] == "labels" and "two coder sheets" in failure["error"]

    def test_empty_retweet_of_is_malformed_and_skipped(self, baseline, tmp_path):
        record = {"tweet_id": "zz1", "user_id": "a00", "timestamp": 0, "text": "RT climate",
                  "retweet_of": "", "reply_to": None, "lang": "en"}
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text((FIXTURES / "tweets.jsonl").read_text() + json.dumps(record) + "\n")
        config = fixture_config(tmp_path, tweets=str(tweets))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
        ingest = json.loads((out / "manifest.json").read_text())["stages"]["ingest"]
        assert (ingest["malformed"], ingest["parsed"]) == (1, 262)
        after, before = tree_bytes(out), tree_bytes(baseline)
        del after["manifest.json"], before["manifest.json"]
        assert after == before

    def test_malformed_config_exits_one(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT


class TestEdgesContract:
    """``edges.csv`` as the virality stage reads it, on fixture outputs."""

    def virality(self, baseline, tmp_path, name, text):
        out = tmp_path / name
        shutil.copytree(baseline, out)
        edges = tmp_path / "edges.csv"
        edges.write_text(text, encoding="utf-8")
        code = main(
            ["virality", "--config", str(CONFIG), "--out", str(out), "--edges", str(edges)]
        )
        return code, out

    @staticmethod
    def manifest(out):
        return json.loads((out / "manifest.json").read_text())

    def test_wrong_header_exits_one(self, baseline, tmp_path):
        rows = (FIXTURES / "edges.csv").read_text().splitlines(keepends=True)
        code, out = self.virality(baseline, tmp_path, "o", "src,dst\n" + "".join(rows[1:]))
        assert code == EXIT_INPUT
        assert self.manifest(out)["failure"]["stage"] == "virality"

    def test_spaced_header_exits_one_and_is_recorded(self, baseline, tmp_path):
        """Header cells are compared exactly, as the rows are read: with
        ``follower, followee`` every row would name a user `` a02``."""
        text = (FIXTURES / "edges.csv").read_text().replace(",", ", ")
        code, out = self.virality(baseline, tmp_path, "o", text)
        assert code == EXIT_INPUT
        failure = self.manifest(out)["failure"]
        assert failure["stage"] == "virality" and "header" in failure["error"]

    def test_short_row_exits_one_and_is_recorded(self, baseline, tmp_path):
        text = (FIXTURES / "edges.csv").read_text() + "a00\n"
        code, out = self.virality(baseline, tmp_path, "o", text)
        assert code == EXIT_INPUT
        failure = self.manifest(out)["failure"]
        assert failure["stage"] == "virality" and "short row" in failure["error"]

    def test_self_loop_and_outside_rows_are_dropped_and_counted(self, baseline, tmp_path):
        text = (FIXTURES / "edges.csv").read_text() + "a00,a00\na00,nobody\n"
        code, out = self.virality(baseline, tmp_path, "o", text)
        assert code == EXIT_OK
        before = self.manifest(baseline)["stages"]["virality"]["dropped_edges"]
        assert self.manifest(out)["stages"]["virality"]["dropped_edges"] == before + 2

    def test_duplicated_row_changes_no_byte(self, baseline, tmp_path):
        text = (FIXTURES / "edges.csv").read_text()
        code, plain = self.virality(baseline, tmp_path, "plain", text)
        assert code == EXIT_OK
        first_row = text.splitlines(keepends=True)[1]
        code, doubled = self.virality(baseline, tmp_path, "doubled", text + first_row)
        assert code == EXIT_OK
        assert tree_bytes(doubled) == tree_bytes(plain)
        for name in ("ledgers.csv", "virality.csv"):
            assert (plain / name).read_bytes() == (baseline / name).read_bytes()


class TestStubOrigins:
    def test_retweet_of_a_missing_origin_is_scored(self, baseline, tmp_path):
        # the stub origin's author "" is in no follow table: no followers
        out = tmp_path / "stub"
        shutil.copytree(baseline, out)
        record = {
            "lang": "en",
            "reply_to": None,
            "retweet_of": "gone",
            "text": "RT @zz: climate crisis demands action now #ClimateCrisis",
            "timestamp": 50,
            "tweet_id": "gone-r0",
            "user_id": "a04",
        }
        with open(out / "filtered.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        code = main(["virality", "--config", str(CONFIG), "--out", str(out)])
        assert code == EXIT_OK
        before = json.loads((baseline / "manifest.json").read_text())["stages"]["virality"]
        after = json.loads((out / "manifest.json").read_text())["stages"]["virality"]
        assert after["ledgers"] == before["ledgers"] + 1
        assert after["zero_successes"] == before["zero_successes"] + 1
        rows = (out / "ledgers.csv").read_text().splitlines()
        assert "gone,9,0,9,1," in rows


class TestFixture:
    def test_make_fixture_reproduces_the_fixtures(self, tmp_path, monkeypatch):
        """``scripts/make_fixture.py`` writes ``fixtures/`` byte for byte."""
        path = Path(__file__).resolve().parent.parent / "scripts" / "make_fixture.py"
        spec = importlib.util.spec_from_file_location("_make_fixture", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "OUT", tmp_path)
        script.main()
        assert tree_bytes(tmp_path) == tree_bytes(FIXTURES)


class TestExitCodes:
    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK

    def test_no_arguments_is_usage_error(self):
        assert main([]) == EXIT_INPUT

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["transmogrify"]) == EXIT_INPUT

    def test_numerical_failures_map_to_two(self):
        stalled = ConvergenceError("stalled", np.zeros(3), 1e-3)
        assert _exit_code_for(stalled) == EXIT_NUMERICAL
        assert _exit_code_for(FloatingPointError("overflow")) == EXIT_NUMERICAL

    def test_input_failures_map_to_one(self):
        assert _exit_code_for(FileNotFoundError("gone")) == EXIT_INPUT
        assert _exit_code_for(ValueError("bad field")) == EXIT_INPUT

    def test_other_failures_map_to_no_code(self):
        assert _exit_code_for(json.JSONDecodeError("bad", "{", 0)) == EXIT_INPUT
        assert _exit_code_for(KeyError("u1")) is None
        assert _exit_code_for(IndexError("out of range")) is None

    def test_stage_bug_surfaces_and_is_recorded(
        self, baseline, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "bug"
        shutil.copytree(baseline, out)

        def broken(ws):
            raise KeyError("u0042")

        stages = tuple((n, broken if n == "words" else fn) for n, fn in STAGES)
        monkeypatch.setattr(cli, "STAGES", stages)
        assert main(["words", "--config", str(CONFIG), "--out", str(out)]) == EXIT_BUG
        err = capsys.readouterr().err
        assert "Traceback" in err and "KeyError: 'u0042'" in err
        failure = json.loads((out / "manifest.json").read_text())["failure"]
        assert failure == {"stage": "words", "error": "'u0042'"}

    def test_nan_coefficient_fails_the_regress_certificate(self, baseline, tmp_path, monkeypatch):
        out = tmp_path / "nan"
        shutil.copytree(baseline, out)
        fit_cv = lasso.fit_cv

        def nan_fit(*args):
            fit = fit_cv(*args)
            return replace(fit, beta=np.where(np.arange(fit.beta.size) == 0, math.nan, fit.beta))

        monkeypatch.setattr(cli, "fit_cv", nan_fit)
        assert main(["regress", "--config", str(CONFIG), "--out", str(out)]) == EXIT_NUMERICAL
        failure = json.loads((out / "manifest.json").read_text())["failure"]
        assert failure["stage"] == "regress" and "KKT residual nan" in failure["error"]

    def test_simulate_bug_surfaces(self, tmp_path, monkeypatch, capsys):
        def broken(config):
            raise IndexError("index 800 is out of bounds")

        monkeypatch.setattr(cli, "generate_world", broken)
        assert main(["simulate", "--out", str(tmp_path / "w")]) == EXIT_BUG
        err = capsys.readouterr().err
        assert "Traceback" in err and "IndexError: index 800 is out of bounds" in err

    @pytest.mark.parametrize(
        "flag", [["--folds", "3"], ["--workers", "9"], ["--tweets", "nope"], ["--stemmer"]]
    )
    def test_simulate_rejects_pipeline_flags(self, tmp_path, flag):
        out = tmp_path / "world"
        assert main(["simulate", "--out", str(out), *flag]) == EXIT_INPUT
        assert not out.exists()

    def test_simulate_bad_config_exits_one(self, tmp_path):
        config = tmp_path / "sim.json"
        out = tmp_path / "world"
        config.write_text(json.dumps({"sim": {"graph": {"n": "many"}}}))
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_INPUT
        config.write_text(json.dumps({"sim": []}))
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()


class TestSimulate:
    def write_config(self, tmp_path, master_seed=7):
        config = tmp_path / "sim.json"
        config.write_text(
            json.dumps(
                {
                    "sim": {
                        "graph": {"kind": "directed-random", "n": 40, "p": 0.2},
                        "r_values": [0.1, 0.3],
                        "cascades_per_r": 3,
                        "master_seed": master_seed,
                    }
                }
            )
        )
        return config

    def test_simulate_emits_world_files(self, tmp_path):
        config = self.write_config(tmp_path)
        out = tmp_path / "world"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert {p.name for p in out.iterdir()} == {
            "tweets.jsonl",
            "edges.csv",
            "truth.csv",
        }
        rows = (out / "truth.csv").read_text().strip().splitlines()
        assert rows[0] == "tweet_id,planted_r,seed_user"
        assert len(rows) - 1 == 6

    def test_simulate_is_deterministic(self, tmp_path):
        config = self.write_config(tmp_path)
        first = tmp_path / "w1"
        second = tmp_path / "w2"
        assert main(["simulate", "--config", str(config), "--out", str(first)]) == EXIT_OK
        assert main(["simulate", "--config", str(config), "--out", str(second)]) == EXIT_OK
        assert tree_bytes(first) == tree_bytes(second)

    @pytest.mark.parametrize(
        "sim, digest",
        [
            (
                {
                    "graph": {"kind": "directed-random", "n": 300, "p": 0.1},
                    "activity": {"kind": "uniform", "lo": 0.2, "hi": 1.0},
                    "r_values": [0.05, 0.2, 0.6],
                    "cascades_per_r": 5,
                    "master_seed": 11,
                },
                "dcfa833e13c1871913d869fca84269ff15386b891be5eefd5aad2750269f79d8",
            ),
            (
                {
                    "graph": {"kind": "planted-two-block", "n": 301, "p_in": 0.3,
                              "p_out": 0.03},
                    "activity": {"kind": "lognormal", "mu": 0.0, "sigma": 0.5},
                    "r_values": [0.1, 0.3],
                    "cascades_per_r": 4,
                    "master_seed": 5,
                    "seed_pool": "uniform",
                },
                "9e6357063e17377286b2dd1f26b5eae5391a01317cd2a362d4b64d146b37e254",
            ),
            (
                {
                    "graph": {"kind": "directed-random", "n": 40, "p": 0.2},
                    "r_values": [0.1, 0.3],
                    "cascades_per_r": 3,
                    "master_seed": 7,
                },
                "1128c34b3fa3e4b1b8473b80e9fb9cd8bac8c1b67a49df11fc1c171099ad8660",
            ),
        ],
        ids=["directed-random", "planted-two-block", "small"],
    )
    def test_simulate_output_is_pinned(self, tmp_path, sim, digest):
        """Digests of the simulator's output while cascades held name sets
        and eager records (the first two from the string-set simulator,
        before the CSR)."""
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"sim": sim}))
        out = tmp_path / "world"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
        h = hashlib.sha256()
        for name in ("tweets.jsonl", "edges.csv", "truth.csv"):
            h.update((out / name).read_bytes())
        assert h.hexdigest() == digest

    def test_seed_flag_overrides_config(self, tmp_path):
        config = self.write_config(tmp_path, master_seed=7)
        base = tmp_path / "base"
        other = tmp_path / "other"
        main(["simulate", "--config", str(config), "--out", str(base)])
        main(["simulate", "--config", str(config), "--out", str(other), "--seed", "8"])
        assert tree_bytes(base) != tree_bytes(other)


class TestOverrides:
    def test_flag_overrides_config_value(self, baseline, tmp_path):
        out = tmp_path / "topk"
        shutil.copytree(baseline, out)
        code = main(
            ["words", "--config", str(CONFIG), "--out", str(out), "--top-k", "3"]
        )
        assert code == EXIT_OK
        rows = (out / "words_activist.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["top_k"] == 3


class TestDefaults:
    """Keys a config leaves out take the dataclasses' own defaults."""

    def test_run_config_without_optional_keys(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{}")
        got = _config_from_args(build_parser().parse_args(["run", "--config", str(config)]))
        for f in fields(PipelineConfig):
            if f.name == "declared_inputs":  # the input paths as given, not a setting
                continue
            if f.default_factory is not MISSING:
                assert getattr(got, f.name) == f.default_factory(), f.name
            elif f.default is not MISSING:
                assert getattr(got, f.name) == f.default, f.name

    def test_simulate_config_without_optional_keys(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text("{}")
        args = build_parser().parse_args(["simulate", "--config", str(config)])
        assert _sim_config(args) == SimConfig()


class TestConfigReader:
    """Each config value must have its field's JSON type, and each key must be
    a setting, ``sim`` or a field of the simulator's config; otherwise the
    command exits 1 and names the dotted key, before writing anything."""

    @staticmethod
    def exit_and_error(tmp_path, capsys, raw):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        command = "simulate" if "sim" in raw else "run"
        code = main([command, "--config", str(config), "--out", str(out)])
        assert not out.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"stemmer": "false"}, "stemmer"),
            ({"folds": 2.9}, "folds"),
            ({"seed": True}, "seed"),
            ({"group_only_features": {"activist": "crowd_size"}}, "group_only_features.activist"),
            ({"labels": "labels_c1.csv"}, "labels"),
            ({"sim": {"graph": {"n": 30.7}}}, "sim.graph.n"),
            ({"sim": {"master_seed": "3"}}, "sim.master_seed"),
            ({"sim": {"cascades_per_r": True}}, "sim.cascades_per_r"),
            ({"sim": {"r_values": [0.1, "0.3"]}}, "sim.r_values[1]"),
        ],
    )
    def test_wrong_type_exits_one_and_names_the_key(self, tmp_path, capsys, raw, key):
        code, err = self.exit_and_error(tmp_path, capsys, raw)
        assert code == EXIT_INPUT
        assert f"config key {key!r}" in err

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"fold": 3}, "fold"),
            ({"declared_inputs": {}}, "declared_inputs"),
            ({"sim": {"master_sed": 3}}, "sim.master_sed"),
            ({"sim": {"graph": {"size": 30}}}, "sim.graph.size"),
            ({"sim": {"activity": {"low": 0.1}}}, "sim.activity.low"),
        ],
        ids=["top-level", "top-level-internal", "sim", "sim.graph", "sim.activity"],
    )
    def test_unknown_key_exits_one_and_names_it(self, tmp_path, capsys, raw, key):
        code, err = self.exit_and_error(tmp_path, capsys, raw)
        assert code == EXIT_INPUT
        assert f"unknown config key {key!r}" in err

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"balance_tol": math.nan}, "balance_tol"),
            ({"balance_tol": math.inf}, "balance_tol"),
            ({"balance_tol": -1}, "balance_tol"),
            ({"threshold": -5}, "threshold"),
            ({"min_author_tweets": -1}, "min_author_tweets"),
            ({"workers": 0}, "workers"),
            ({"seed": -1}, "seed"),
            ({"folds": 1}, "folds"),
            ({"lambda_grid": 0}, "lambda_grid"),
            ({"sim": {"master_seed": -1}}, "master_seed"),
            ({"sim": {"activity": {"hi": math.inf}}}, "hi"),
            ({"sim": {"activity": {"kind": "lognormal", "mu": math.nan}}}, "mu"),
            ({"sim": {"activity": {"kind": "lognormal", "sigma": math.inf}}}, "sigma"),
            ({"sim": {"activity": {"kind": "lognormal", "mu": 800}}}, "mu and sigma"),
            ({"sim": {"activity": {"kind": "lognormal", "mu": -800}}}, "mu and sigma"),
            ({"sim": {"r_values": []}}, "r_values"),
            ({"sim": {"r_values": [0.1, 1.5]}}, "r_values"),
        ],
        ids=["balance_tol-nan", "balance_tol-inf", "balance_tol-negative", "threshold",
             "min_author_tweets", "workers", "seed", "folds", "lambda_grid",
             "sim.master_seed", "sim.activity.hi-inf", "sim.activity.mu-nan",
             "sim.activity.sigma-inf", "sim.activity.mu-800", "sim.activity.mu-minus-800",
             "sim.r_values-empty", "sim.r_values-above-1"],
    )
    def test_out_of_range_value_exits_one_and_names_the_key(self, tmp_path, capsys, raw, key):
        code, err = self.exit_and_error(tmp_path, capsys, raw)
        assert code == EXIT_INPUT
        assert f"{key} must be" in err

    def test_negative_top_k_exits_one(self, baseline, tmp_path, capsys):
        raw = json.loads(CONFIG.read_text())
        for key in ("tweets", "edges"):
            raw[key] = str(FIXTURES / raw[key])
        raw["labels"] = [str(FIXTURES / p) for p in raw["labels"]]
        raw["top_k"] = -3
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        shutil.copytree(baseline, out)
        assert main(["words", "--config", str(config), "--out", str(out)]) == EXIT_INPUT
        assert "top_k" in capsys.readouterr().err
        assert (out / "words_activist.csv").read_bytes() == (
            baseline / "words_activist.csv"
        ).read_bytes()

    def test_an_integer_is_a_float_and_null_is_none(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "balance_tol": 0,
            "sim": {"graph": {"p": 1}, "activity": {"lo": 1, "hi": 2}, "r_values": [0, 1]},
        }))
        got = _config_from_args(build_parser().parse_args(["run", "--config", str(config)]))
        assert got.balance_tol == 0.0 and type(got.balance_tol) is float
        sim = _sim_config(build_parser().parse_args(["simulate", "--config", str(config)]))
        assert sim.graph == GraphSpec(p=1.0) and type(sim.graph.p) is float
        assert (sim.activity.lo, sim.activity.hi, sim.r_values) == (1.0, 2.0, (0.0, 1.0))
        config.write_text(json.dumps({"sim": {"graph": {
            "kind": "planted-two-block", "p": None, "p_in": 0.5, "p_out": 0.1}}}))
        sim = _sim_config(build_parser().parse_args(["simulate", "--config", str(config)]))
        assert sim.graph.p is None
