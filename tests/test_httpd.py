"""HTTP telemetry endpoint tests (repro.obs.httpd).

Every endpoint is exercised against a real server on an ephemeral
port: /metrics must emit parseable OpenMetrics with the negotiated
content type, /status must report the hub's progress/worker state,
/events must stream SSE frames (including the injected-stall event),
and the ledger source must serve a recorded run when no sweep is
live.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs import httpd as obs_httpd
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.obs import openmetrics
from repro.obs.progress import Progress


@pytest.fixture(autouse=True)
def _clean():
    obs_live.deactivate()
    obs.disable()
    obs.reset()
    obs_metrics.reset()
    yield
    obs_live.deactivate()
    obs.disable()
    obs.reset()
    obs_metrics.reset()


@pytest.fixture()
def server():
    live_server = obs_httpd.start_server(port=0)
    yield live_server
    live_server.close()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode()


class TestEndpoints:
    def test_healthz(self, server):
        status, _headers, body = _get(server.url + "/healthz")
        assert status == 200
        assert body == "ok\n"

    def test_metrics_is_valid_openmetrics_with_content_type(self, server):
        obs_metrics.counter("trace_cache.spill").add(2)
        obs_metrics.gauge("trace_cache.spilled_bytes").set(4096)
        status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == obs_httpd.OPENMETRICS_CONTENT_TYPE
        families = openmetrics.parse_openmetrics(body)
        assert "repro_trace_cache_spill" in families
        assert families["repro_trace_cache_spilled_bytes"]["unit"] == "bytes"

    def test_status_without_hub(self, server):
        status, headers, body = _get(server.url + "/status")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert payload["active"] is False
        assert payload["sweeps"] == []

    def test_status_reports_live_hub_state(self, server):
        hub = obs_live.activate(monitor=False)
        Progress("profile-sweep", total=10).advance(4)
        hub.chunk_submitted(0, 5)
        hub.ingest({"kind": "chunk.start", "pid": 33, "chunk": 0,
                    "pairs": 5, "rss_bytes": 12345})
        _status, _headers, body = _get(server.url + "/status")
        payload = json.loads(body)
        assert payload["active"] is True
        assert payload["sweeps"][0]["done"] == 4
        assert payload["inflight_chunks"] == {"0": 5}
        assert payload["workers"][0]["pid"] == 33
        assert payload["gauges"]["progress.completed"] == 4.0

    def test_index_and_404(self, server):
        status, _headers, body = _get(server.url + "/")
        assert status == 200 and "/metrics" in body
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404

    def test_ephemeral_port_resolved(self, server):
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"


class TestEvents:
    def test_sse_stream_replays_and_limits(self, server):
        hub = obs_live.activate(monitor=False)
        hub.publish("sweep.start", label="s", total=4)
        hub.publish("pair.done", pair="a@b")
        _status, headers, body = _get(server.url + "/events?limit=2")
        assert headers["Content-Type"].startswith("text/event-stream")
        frames = [f for f in body.split("\n\n") if f.startswith("id:")]
        assert len(frames) == 2
        assert "event: sweep.start" in frames[0]
        data = json.loads(
            next(
                line[len("data: "):]
                for line in frames[1].splitlines()
                if line.startswith("data: ")
            )
        )
        assert data["kind"] == "pair.done" and data["pair"] == "a@b"

    def test_sse_without_hub_closes_cleanly(self, server):
        _status, _headers, body = _get(server.url + "/events?limit=1")
        assert "no active sweep" in body

    def test_injected_stall_reaches_the_sse_stream(self, server):
        # The acceptance path: a worker goes silent, check_stalls flips
        # the gauge, and the stall event is visible to SSE clients.
        class ManualClock:
            now = 0.0

            def __call__(self):
                return self.now

        clock = ManualClock()
        hub = obs_live.activate(clock=clock, monitor=False)
        hub.ingest({"kind": "chunk.start", "pid": 55, "chunk": 3,
                    "pairs": 4})
        clock.now += 6.0
        assert hub.check_stalls() == [55]
        assert obs_metrics.gauge("executor.worker.stalled").value == 1.0
        _status, _headers, body = _get(server.url + "/events?limit=2")
        assert "event: worker.stalled" in body
        stall = next(
            json.loads(line[len("data: "):])
            for frame in body.split("\n\n")
            for line in frame.splitlines()
            if line.startswith("data: ")
            and '"worker.stalled"' in line
        )
        assert stall["pid"] == 55
        assert stall["silent_seconds"] >= 5.0
        assert stall["threshold_seconds"] == 5.0


class TestLedgerSource:
    def _document(self):
        return {
            "id": "0042-deadbeef",
            "seq": 42,
            "manifest": {
                "command": "dataset",
                "argv": ["dataset", "--suite", "rate-int"],
                "elapsed_s": 1.5,
                "metrics": {
                    "counters": {"profiler.cache.miss": 70},
                    "gauges": {"executor.pool.jobs": 4},
                    "histograms": {},
                },
                "stages": {},
            },
        }

    def test_ledger_metrics_and_status(self):
        metrics_fn, status_fn = obs_httpd.ledger_source(self._document())
        server = obs_httpd.start_server(
            port=0, metrics_fn=metrics_fn, status_fn=status_fn
        )
        try:
            _status, _headers, body = _get(server.url + "/metrics")
            families = openmetrics.parse_openmetrics(body)
            assert families["repro_profiler_cache_miss"]["samples"][0][2] \
                == 70.0
            _status, _headers, body = _get(server.url + "/status")
            payload = json.loads(body)
            assert payload["source"] == "ledger"
            assert payload["active"] is False
            assert payload["run"]["id"] == "0042-deadbeef"
            assert payload["run"]["command"] == "dataset"
        finally:
            server.close()


class TestLifecycle:
    def test_context_manager_closes(self):
        with obs_httpd.start_server(port=0) as live_server:
            status, _headers, _body = _get(live_server.url + "/healthz")
            assert status == 200
        with pytest.raises(OSError):
            _get(live_server.url + "/healthz")

    def test_two_servers_coexist(self):
        with obs_httpd.start_server(port=0) as first:
            with obs_httpd.start_server(port=0) as second:
                assert first.port != second.port
                assert _get(first.url + "/healthz")[0] == 200
                assert _get(second.url + "/healthz")[0] == 200


class TestLazyImport:
    def test_import_repro_does_not_load_http_server(self):
        # Only the serve paths import repro.obs.httpd; every other
        # command must not pay for http.server at start-up.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys, repro, repro.obs; "
            "print([m for m in ('http.server', 'repro.obs.httpd') "
            "if m in sys.modules])"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_import_repro_does_not_load_the_run_ledger(self):
        # The ledger modules load on first attribute access of
        # repro.obs, so a plain command never imports them.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        ledger = [
            f"repro.obs.{name}"
            for name in ("baseline", "export", "history", "manifest",
                         "openmetrics")
        ]
        code = (
            "import sys, repro, repro.obs; "
            "from repro.workloads.spec import all_workloads; "
            "all_workloads(); "
            f"before = [m for m in {ledger!r} if m in sys.modules]; "
            "from repro import obs; obs.history; obs.export; "
            f"after = [m for m in {ledger!r} if m in sys.modules]; "
            "print(before, len(after))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        # history imports manifest itself.
        assert result.stdout.strip() == "[] 3"
