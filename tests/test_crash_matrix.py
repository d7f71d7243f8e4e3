"""Crash matrix: every write boundary and every file of the persistent stores.

:func:`repro.artifact.atomic_write` is the one place a store file is
renamed into place (``TestOneWritePath`` lints for it), so patching
:func:`os.replace` observes every write boundary.  Three small scenarios
run clean once, logging each write:

* a campaign: 8 machines x 2 workloads on the trace engine at 2,000
  instructions, run and then folded (a campaign writes no disk cache);
* a disk-cached sweep: the same two workloads on the seven paper
  machines at 2,000 instructions through ``build_feature_matrix``;
* the run ledger: three recorded runs, one run document each.

Each logged write is then crashed just before and just after its rename
by a ``BaseException``, after leaving a partial ``.tmp-*.part`` beside
the target as a SIGKILL would.  The first and last column write of
each ``CampaignStore.write_rows`` are crashed too.  The recovery path
follows: ``run(resume=True)`` for the campaign, the same sweep over the
same cache for the disk cache, and for the ledger the next
``record_run``, ``list_runs``, ``load_run`` of ``-1``, ``-2``, … and
``load_run`` of every listed run.  Separately, every file the clean run
left is truncated to half its length, or has the low bit of its middle
byte flipped, and recovered the same way.  Where one code path writes
many files of a kind (disk-cache entries, store columns), the first and
last are enough.

Every case must reproduce the clean answer or raise a named
:class:`~repro.errors.ReproError`.  The clean campaign answer is its
campaign digest, store digest and ``analysis.json`` bytes.  The clean
sweep answer is its feature matrix digest.  The clean ledger answer is
the listing, the ids the offsets load and every run document of a
ledger that recorded the same runs.  Any other exception, or any other
answer, fails.  Stricter still, so that a recovery which always raised could
not pass: every crash, and damage to a file its store can recompute or
rebuild (a disk-cache entry, a shard manifest, ``analysis.json``),
must reproduce the clean answer; only the named error of the one
damaged file is allowed otherwise.  A damaged run document must give
the exact answer: the clean listing without that run, every other run
loading equal.  A damaged file that recovery reads must bump its
store's ``.corrupt`` counter.
"""

from __future__ import annotations

import ast
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.campaign import CampaignConfig, CampaignRunner
from repro.errors import ReproError
from repro.obs import history
from repro.obs import manifest as obs_manifest
from repro.perf.counters import SIMILARITY_METRICS
from repro.perf.dataset import build_feature_matrix
from repro.perf.profiler import Profiler

LIBRARY_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``module.function`` calls that rename or stage files; only
#: ``repro/artifact.py`` may make them.
WRITE_PRIMITIVES = {
    ("os", "replace"),
    ("os", "rename"),
    ("tempfile", "mkstemp"),
    ("tempfile", "mkdtemp"),
}


def _write_primitive_calls(path: Path) -> list:
    text = path.read_text()
    if not any(name in text for _, name in WRITE_PRIMITIVES):
        return []  # no call or import can name one
    tree = ast.parse(text)
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and (node.func.value.id, node.func.attr) in WRITE_PRIMITIVES
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
            (node.module, alias.name) in WRITE_PRIMITIVES
            for alias in node.names
        ):
            lines.append(node.lineno)
    return lines


class TestOneWritePath:
    def test_only_the_artifact_module_renames_files_into_place(self):
        offenders = {}
        for path in sorted(LIBRARY_ROOT.rglob("*.py")):
            relative = path.relative_to(LIBRARY_ROOT).as_posix()
            if relative == "artifact.py":
                continue
            lines = _write_primitive_calls(path)
            if lines:
                offenders[relative] = lines
        assert not offenders, (
            "persistent files are written by repro.artifact.atomic_write "
            f"only: {offenders}"
        )


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------


class _Crash(BaseException):
    """A simulated kill: no ``except Exception`` handler catches it."""


def _leave_partial(target: Path, blob: bytes) -> None:
    """The half-written temporary a SIGKILL leaves beside ``target``."""
    (target.parent / ".tmp-killed.part").write_bytes(blob[: len(blob) // 2])


class _Writes:
    """Logs every rename; :meth:`arm` crashes the k-th one of a run."""

    def __init__(self) -> None:
        self.log = []
        self.crash_at = None
        self.when = None
        self._replace = os.replace

    def arm(self, index, when) -> None:
        self.log, self.crash_at, self.when = [], index, when

    def replace(self, src, dst) -> None:
        index = len(self.log)
        self.log.append(Path(dst))
        crash = index == self.crash_at
        if crash and self.when == "before":
            _leave_partial(Path(dst), Path(src).read_bytes())
            raise _Crash
        self._replace(src, dst)
        if crash:
            _leave_partial(Path(dst), Path(dst).read_bytes())
            raise _Crash


@pytest.fixture
def writes(monkeypatch):
    """A :class:`_Writes` seeing every rename of the test."""
    recorder = _Writes()
    monkeypatch.setattr(os, "replace", recorder.replace)
    return recorder


@pytest.fixture(autouse=True)
def _fresh_counters():
    obs.metrics.reset()
    yield
    obs.metrics.reset()


def _clean_run(root: Path, scenario) -> tuple:
    """Run ``scenario(root)`` once; its result and its write log."""
    recorder = _Writes()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "replace", recorder.replace)
        result = scenario(root)
    return result, [path.relative_to(root) for path in recorder.log]


def _first_and_last(indices):
    return sorted({indices[0], indices[-1]}) if indices else []


def _damage_cases(paths):
    """(path, kind) for a truncation and a one-bit flip of each file."""
    return [(path, kind) for path in paths for kind in ("truncate", "flip")]


def _damage(path: Path, kind: str) -> None:
    blob = bytearray(path.read_bytes())
    if kind == "truncate":
        del blob[len(blob) // 2:]
    else:
        blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))


def _settle(recover):
    """The recovery's answer, or the type of the named error it raised."""
    try:
        return recover()
    except ReproError as error:
        return type(error)


def _named_error(outcome) -> bool:
    return isinstance(outcome, type) and issubclass(outcome, ReproError)


# ----------------------------------------------------------------------
# the campaign store
# ----------------------------------------------------------------------

CONFIG = CampaignConfig(
    machines=8,
    workloads=("505.mcf_r", "557.xz_r"),
    engine="trace",
    trace_instructions=2_000,
    shard_machines=4,
    clusters=3,
)


def _runner(root: Path) -> CampaignRunner:
    return CampaignRunner(root / "camp", CONFIG)


def _answer(runner: CampaignRunner, summary: dict) -> tuple:
    analysis = (runner.directory / "analysis.json").read_bytes()
    return summary["digest"], summary["store_digest"], analysis


def _run_and_fold(root: Path) -> tuple:
    runner = _runner(root)
    summary = runner.run()
    runner.fold()
    return _answer(runner, summary)


def _resume(root: Path) -> tuple:
    runner = _runner(root)
    return _answer(runner, runner.run(resume=True))


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """The clean campaign: its answer, write log and directory."""
    root = tmp_path_factory.mktemp("campaign") / "clean"
    answer, log = _clean_run(root, _run_and_fold)
    return answer, log, root


def _judge(failures, case, outcome, clean, may_raise=False):
    if outcome != clean and not (may_raise and _named_error(outcome)):
        failures.append(f"{case}: {outcome!r} instead of the clean answer")


class TestCampaignCrashMatrix:
    def test_every_write_boundary_recovers_or_names_an_error(
        self, tmp_path, writes, campaign
    ):
        clean, log, _ = campaign
        # The store schema (created, then sealed), campaign.json, two
        # shard manifests and analysis.json (run, then fold): no cache
        # entry.
        assert all(path.parts[0] == "camp" for path in log)
        assert len(log) == 7
        failures = []
        for index in range(len(log)):
            for when in ("before", "after"):
                root = tmp_path / f"w{index}-{when}"
                writes.arm(index, when)
                with pytest.raises(_Crash):
                    _run_and_fold(root)
                writes.arm(None, None)
                case = f"{log[index]} crashed {when} its rename"
                _judge(failures, case, _settle(lambda: _resume(root)), clean)
        assert not failures, failures

    def test_torn_write_rows_recovers(self, tmp_path, monkeypatch, campaign):
        clean, _, _ = campaign
        columns = len(SIMILARITY_METRICS)
        real = np.lib.format.open_memmap
        opened = {"r+": 0}
        crash_at = {"index": None}

        def open_memmap(filename, mode="r+", **kwargs):
            if mode == "r+":
                if opened["r+"] == crash_at["index"]:
                    raise _Crash
                opened["r+"] += 1
            return real(filename, mode=mode, **kwargs)

        monkeypatch.setattr(np.lib.format, "open_memmap", open_memmap)
        failures = []
        # Before the first and the last column of each shard's block.
        for index in (0, columns - 1, columns, 2 * columns - 1):
            root = tmp_path / f"column{index}"
            opened["r+"], crash_at["index"] = 0, index
            with pytest.raises(_Crash):
                _run_and_fold(root)
            crash_at["index"] = None
            case = f"write_rows crashed before column write {index}"
            _judge(failures, case, _settle(lambda: _resume(root)), clean)
        assert not failures, failures

    def test_every_damaged_file_recovers_or_names_an_error(
        self, tmp_path, campaign
    ):
        clean, _, clean_root = campaign
        assert not list(clean_root.rglob("*.rpc"))
        columns = sorted((clean_root / "camp" / "store" / "columns").iterdir())
        files = sorted(
            path for path in (clean_root / "camp").rglob("*.json")
        ) + _first_and_last(columns)
        assert len(files) == 7
        failures = []
        for number, (path, kind) in enumerate(_damage_cases(files)):
            relative = path.relative_to(clean_root)
            root = tmp_path / f"d{number}"
            shutil.copytree(clean_root, root)
            _damage(root / relative, kind)
            obs.metrics.reset()
            outcome = _settle(lambda: _resume(root))
            case = f"{relative} {kind}"
            recomputable = relative.parent.name == "shards"
            recomputable |= relative.name == "analysis.json"
            _judge(failures, case, outcome, clean, not recomputable)
            if relative.name != "analysis.json":  # never read back
                corrupt = obs.metrics.counter("campaign.corrupt").value
                if corrupt < 1:
                    failures.append(f"{case}: campaign.corrupt not counted")
        assert not failures, failures


# ----------------------------------------------------------------------
# the disk cache
# ----------------------------------------------------------------------


def _sweep(root: Path) -> str:
    """The disk-cached sweep's answer: its feature matrix digest."""
    profiler = Profiler(
        engine=CONFIG.engine,
        trace_instructions=CONFIG.trace_instructions,
        seed=CONFIG.seed,
        cache_dir=root / "cache",
    )
    return build_feature_matrix(CONFIG.workloads, profiler=profiler).digest()


@pytest.fixture(scope="module")
def cached_sweep(tmp_path_factory):
    """The clean sweep: its answer, write log and directory."""
    root = tmp_path_factory.mktemp("sweep") / "clean"
    answer, log = _clean_run(root, _sweep)
    return answer, log, root


class TestDiskCacheCrashMatrix:
    def test_every_write_boundary_recovers_or_names_an_error(
        self, tmp_path, writes, cached_sweep
    ):
        clean, log, _ = cached_sweep
        # One entry per pair: 2 workloads x 7 paper machines.
        assert all(path.suffix == ".rpc" for path in log)
        assert len(log) == 14
        boundaries = _first_and_last(list(range(len(log))))
        failures = []
        for index in boundaries:
            for when in ("before", "after"):
                root = tmp_path / f"w{index}-{when}"
                writes.arm(index, when)
                with pytest.raises(_Crash):
                    _sweep(root)
                writes.arm(None, None)
                case = f"{log[index]} crashed {when} its rename"
                _judge(failures, case, _settle(lambda: _sweep(root)), clean)
        assert not failures, failures

    def test_every_damaged_file_recovers_or_names_an_error(
        self, tmp_path, cached_sweep
    ):
        clean, _, clean_root = cached_sweep
        files = _first_and_last(sorted((clean_root / "cache").rglob("*.rpc")))
        assert len(files) == 2
        failures = []
        for number, (path, kind) in enumerate(_damage_cases(files)):
            relative = path.relative_to(clean_root)
            root = tmp_path / f"d{number}"
            shutil.copytree(clean_root, root)
            _damage(root / relative, kind)
            obs.metrics.reset()
            case = f"{relative} {kind}"
            # A damaged entry is a miss: the sweep recomputes the pair.
            _judge(failures, case, _settle(lambda: _sweep(root)), clean)
            if obs.metrics.counter("diskcache.corrupt").value < 1:
                failures.append(f"{case}: diskcache.corrupt not counted")
        assert not failures, failures


# ----------------------------------------------------------------------
# the run ledger
# ----------------------------------------------------------------------


def _manifest(command: str, *args: str, misses: float) -> dict:
    return obs_manifest.build_manifest(
        command,
        [command, *args, "--obs", "summary"],
        [],
        {"counters": {"profiler.cache.miss": misses}},
    )


RECORDED = [
    _manifest("profile", name, misses=float(index + 1))
    for index, name in enumerate(("505.mcf_r", "557.xz_r", "541.leela_r"))
]
NEXT = _manifest("report", misses=9.0)


def _ledger_steps(directory: Path) -> None:
    for manifest in RECORDED:
        history.record_run(manifest, directory)


def _ledger_answer(directory: Path) -> list:
    """The listing after one more run, the ids that ``-1``, ``-2``, …
    load (newest first, without listing), then each listed run loaded.

    Recording and listing never raise; loading a run may, in its own
    part, as the named error it raised.
    """
    history.record_run(NEXT, directory)
    runs = history.list_runs(directory)
    newest_first = _settle(lambda: [
        history.load_run(f"-{k}", directory)["id"]
        for k in range(1, len(runs) + 1)
    ])
    return [[info.to_dict() for info in runs], newest_first] + [
        _settle(lambda: history.load_run(info.id, directory))
        for info in runs
    ]


def _expected_ledger(directory: Path, recorded: int) -> list:
    """The answer of a ledger that recorded the first ``recorded`` runs."""
    for run in RECORDED[:recorded]:
        history.record_run(run, directory)
    return _ledger_answer(directory)


def _without_run(answer: list, run_id: str) -> list:
    """``answer`` with the run ``run_id`` left out of every part."""
    listing, newest_first, loads = answer[0], answer[1], answer[2:]
    kept = [n for n, info in enumerate(listing) if info["id"] != run_id]
    return [
        [listing[n] for n in kept],
        [other for other in newest_first if other != run_id],
    ] + [loads[n] for n in kept]


def _judge_ledger(failures, case, outcome, expected):
    if len(outcome) != len(expected):
        failures.append(f"{case}: {len(outcome)} parts, not {len(expected)}")
    for part, (got, want) in enumerate(zip(outcome, expected)):
        if got != want:
            failures.append(f"{case}: part {part} is {got!r}")


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    """The clean ledger scenario's write log and directory."""
    root = tmp_path_factory.mktemp("ledger") / "clean"
    _, log = _clean_run(root, _ledger_steps)
    return log, root


class TestLedgerCrashMatrix:
    def test_every_write_boundary_recovers_or_names_an_error(
        self, tmp_path, writes, ledger
    ):
        log, _ = ledger
        assert len(log) == 3  # one run document per recorded run
        failures = []
        for index, target in enumerate(log):
            for when in ("before", "after"):
                root = tmp_path / f"w{index}-{when}"
                writes.arm(index, when)
                with pytest.raises(_Crash):
                    _ledger_steps(root)
                writes.arm(None, None)
                expected = _expected_ledger(
                    tmp_path / f"e{index}-{when}", index + (when == "after")
                )
                case = f"{target} crashed {when} its rename"
                _judge_ledger(failures, case, _ledger_answer(root), expected)
        assert not failures, failures

    def test_every_damaged_file_recovers_or_names_an_error(
        self, tmp_path, ledger
    ):
        _, clean_root = ledger
        clean = _expected_ledger(tmp_path / "expected", 3)
        files = sorted(
            path for path in clean_root.rglob("*") if path.is_file()
        )
        assert len(files) == 3  # the three run documents, nothing else
        failures = []
        for number, (path, kind) in enumerate(_damage_cases(files)):
            relative = path.relative_to(clean_root)
            root = tmp_path / f"d{number}"
            shutil.copytree(clean_root, root)
            _damage(root / relative, kind)
            obs.metrics.reset()
            case = f"{relative} {kind}"
            # The damaged run drops out; its number is not reused.
            expected = _without_run(clean, path.stem)
            _judge_ledger(failures, case, _ledger_answer(root), expected)
            if obs.metrics.counter("history.corrupt").value < 1:
                failures.append(f"{case}: history.corrupt not counted")
        assert not failures, failures
