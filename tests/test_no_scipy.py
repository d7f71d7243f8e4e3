"""Tier-1 guard: no command needs scipy.

scipy is a test-only dependency, the oracle of the differential tests.
These tests start fresh interpreters: one imports the package and loads
the workload registry, and checks that no ``scipy`` module came along;
two run the same commands, one with scipy importable and one with
``sys.modules["scipy"] = None`` (so any scipy import raises), and every
command must exit 0 with the same output in both.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs ``repro`` commands in one interpreter; prints, as JSON, each
#: command's exit code (or exception) and stdout, then the scipy
#: modules loaded.  argv: mode ("blocked" or "importable"), commands.
DRIVER = r"""
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from repro.cli import main
results = {}
for name, argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except SystemExit as stop:
        code = stop.code
    except BaseException as error:
        code = f"{type(error).__name__}: {error}"
    results[name] = [code, out.getvalue()]
results["scipy modules"] = sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "scipy" and module is not None
)
print(json.dumps(results))
"""


def fresh_env(tmp_path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["REPRO_OBS_DIR"] = str(tmp_path / "obs")
    env.pop("REPRO_CACHE_DIR", None)
    return env


def commands(workdir: Path) -> list:
    return [
        ("report", ["report", "--out", str(workdir / "REPORT.md")]),
        ("balance", ["balance"]),
        ("power", ["power"]),
        ("casestudies", ["casestudies"]),
        ("subset", ["subset", "rate-int", "--validate"]),
        ("dataset", ["dataset", "--suite", "rate-int", "--engine", "trace"]),
        (
            "campaign",
            [
                "campaign", "run", str(workdir / "campaign"),
                "--machines", "16", "--instructions", "20000",
            ],
        ),
    ]


def test_import_and_registry_load_no_scipy(tmp_path):
    script = (
        "import sys, repro\n"
        "repro.all_workloads()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=fresh_env(tmp_path), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_commands_run_without_scipy(tmp_path):
    runs = {}
    for mode in ("blocked", "importable"):
        workdir = tmp_path / mode
        workdir.mkdir()
        runs[mode] = (
            workdir,
            subprocess.Popen(
                [sys.executable, "-c", DRIVER, mode, json.dumps(commands(workdir))],
                env=fresh_env(workdir), cwd=workdir,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            ),
        )
    outputs = {}
    try:
        for mode, (_workdir, process) in runs.items():
            outputs[mode] = process.communicate(timeout=600)
    finally:
        for _workdir, process in runs.values():
            process.kill()
            process.wait(timeout=60)
    results, loaded = {}, {}
    for mode, (workdir, process) in runs.items():
        stdout, stderr = outputs[mode]
        assert process.returncode == 0, stderr
        found = json.loads(stdout)
        loaded[mode] = found.pop("scipy modules")
        results[mode] = {
            name: (code, text.replace(str(workdir), "WORKDIR"))
            for name, (code, text) in found.items()
        }
        report = workdir / "REPORT.md"
        results[mode]["REPORT.md"] = report.exists() and hashlib.sha256(
            report.read_bytes()
        ).hexdigest()
    blocked, importable = results["blocked"], results["importable"]
    for name, _argv in commands(tmp_path):
        assert blocked[name][0] == 0, (name, blocked[name])
        assert importable[name][0] == 0, (name, importable[name])
    # Not even a guarded import: scipy stays unloaded when importable.
    assert loaded == {"blocked": [], "importable": []}
    assert blocked == importable
