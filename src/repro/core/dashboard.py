"""Lightweight performance dashboard (paper §IV-F).

"A very lightweight performance dashboard that enables easy monitoring and
online exploration of workflows based on an embedded web server written
entirely in Python."  This module implements it over the stdlib
``http.server``: JSON endpoints backed by the query interface plus a
minimal HTML index.

Endpoints:
  GET /                      — HTML overview of all workflows
  GET /api/workflows         — all workflow runs with status
  GET /api/workflow/<id>     — summary statistics for one run
  GET /api/workflow/<id>/jobs— jobs.txt rows as JSON
  GET /api/stream            — SSE progress stream for the whole archive
  GET /api/workflow/<id>/stream — SSE progress stream for one run
  GET /api/workflow/<id>/poll   — long-poll: ?since=<seq>&timeout=<s>
  GET /metrics               — Prometheus exposition of the process registry

Every JSON payload is served through a :class:`repro.core.live.ReadCache`
invalidated by the rollup commit sequence: N concurrent viewers of the
same endpoint cost one computation per archive commit, not N per
request.  The SSE endpoints accept ``?limit=N`` (close after N progress
frames) and ``?timeout=S`` (idle-close after S seconds without a
commit) so streaming clients are testable and abandoned viewers cannot
pin server threads.

Error contract: an unknown workflow id is 404; a malformed API path
(e.g. a non-numeric id) is 400; a workflow the archive has no rollups
for is 500, with the reason naming ``stampede-rollup rebuild``.
"""
from __future__ import annotations

import json
import re
import threading
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qsl

from repro.archive.store import StampedeArchive
from repro.core.live import LiveFeed, ReadCache, _wf_state, bind_live
from repro.core.rollup import RollupCoverageError
from repro.core.statistics import workflow_statistics
from repro.model.entities import RollupWorkflowRow
from repro.obs.export import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.query.api import StampedeQuery

__all__ = ["DashboardData", "Dashboard"]

#: long-poll/SSE waits are capped so a bogus ?timeout can't pin a thread
_MAX_WAIT_SECONDS = 120.0


class DashboardData:
    """The dashboard's data layer — also usable without HTTP (tests, CLIs).

    All payload builders run through ``self.cache``; identical requests
    between two rollup commits share one computation (single-flight),
    and the cache invalidates the moment the loader commits — no TTL.
    """

    def __init__(self, archive: StampedeArchive):
        self.archive = archive
        self.query = StampedeQuery(archive)
        self.cache = ReadCache(archive)
        self.feed = LiveFeed(archive)

    def _require_workflow(self, wf_id: int) -> int:
        """Raise ``KeyError`` (HTTP 404) when no such run exists —
        payload builders otherwise fabricate empty stats for any id."""
        if self.query.workflow(wf_id) is None:
            raise KeyError(f"no workflow with wf_id={wf_id}")
        return wf_id

    def workflows_payload(self) -> dict:
        return self.cache.get("workflows", self._workflows_uncached)

    def _workflows_uncached(self) -> dict:
        # workflows first: one committed between the two reads brings its
        # rollup row along, so a missing row is missing coverage
        workflows = self.query.workflows()
        rollups = {r.wf_id: r for r in self.archive.query(RollupWorkflowRow).all()}
        rows = []
        for wf in workflows:
            row = rollups.get(wf.wf_id)
            if row is None:
                raise RollupCoverageError(wf.wf_id)
            rows.append(
                {
                    "wf_id": wf.wf_id,
                    "wf_uuid": wf.wf_uuid,
                    "dag_file_name": wf.dag_file_name,
                    "parent_wf_id": wf.parent_wf_id,
                    "state": _wf_state(row),
                }
            )
        return {"workflows": rows}

    def workflow_payload(self, wf_id: int) -> dict:
        return self.cache.get(
            ("workflow", wf_id), lambda: self._workflow_uncached(wf_id)
        )

    def _workflow_uncached(self, wf_id: int) -> dict:
        # the summary payload renders no per-job rows: include_jobs=False
        # keeps this a pure rollup point read
        stats = workflow_statistics(
            self.query, wf_id=self._require_workflow(wf_id), include_jobs=False
        )
        return {
            "wf_id": stats.wf_id,
            "wf_uuid": stats.wf_uuid,
            "wall_time": stats.wall_time,
            "cumulative_job_wall_time": stats.cumulative_job_wall_time,
            "counts": asdict(stats.counts),
            "breakdown": [
                {
                    "type": b.type_name,
                    "count": b.count,
                    "succeeded": b.succeeded,
                    "failed": b.failed,
                    "min": b.min_runtime,
                    "max": b.max_runtime,
                    "mean": b.mean_runtime,
                    "total": b.total_runtime,
                }
                for b in stats.breakdown
            ],
        }

    def jobs_payload(self, wf_id: int) -> dict:
        return self.cache.get(("jobs", wf_id), lambda: self._jobs_uncached(wf_id))

    def _jobs_uncached(self, wf_id: int) -> dict:
        self._require_workflow(wf_id)
        return {"jobs": [asdict(j) for j in self.query.job_details(wf_id)]}

    def poll_payload(self, wf_id: Optional[int], since: int, timeout: float) -> dict:
        """Long-poll: block until the commit sequence moves past ``since``
        (or ``timeout`` elapses), then return the current progress
        snapshot.  ``since=-1`` returns immediately."""
        self.feed.wait_for_change(since, min(timeout, _MAX_WAIT_SECONDS))
        return self.feed.snapshot(wf_id)

    def progress_payload(self, wf_id: int) -> dict:
        """Fig. 7 data: per-sub-workflow cumulative-runtime step series."""
        return self.cache.get(
            ("progress", wf_id), lambda: self._progress_uncached(wf_id)
        )

    def _progress_uncached(self, wf_id: int) -> dict:
        from repro.core.timeseries import bundle_progress

        series = bundle_progress(self.query, self._require_workflow(wf_id))
        return {
            "series": [
                {
                    "label": s.label,
                    "wf_id": s.wf_id,
                    "points": [[round(t, 3), round(v, 3)] for t, v in s.points],
                }
                for s in series
            ]
        }

    def gantt_payload(self, wf_id: int) -> dict:
        """Per-instance execution spans for a host Gantt view."""
        return self.cache.get(("gantt", wf_id), lambda: self._gantt_uncached(wf_id))

    def _gantt_uncached(self, wf_id: int) -> dict:
        from repro.core.timeseries import gantt

        self._require_workflow(wf_id)
        return {
            "rows": [
                {
                    "job": r.exec_job_id,
                    "try": r.try_number,
                    "host": r.hostname,
                    "submit": r.submit,
                    "start": r.start,
                    "end": r.end,
                }
                for r in gantt(self.query, wf_id)
            ]
        }

    def anomalies_payload(self, wf_id: int) -> dict:
        """Post-hoc anomaly scan of one workflow (and its descendants)."""
        return self.cache.get(
            ("anomalies", wf_id), lambda: self._anomalies_uncached(wf_id)
        )

    def _anomalies_uncached(self, wf_id: int) -> dict:
        from repro.core.anomaly import scan_archive

        detector = scan_archive(self.query, self._require_workflow(wf_id))
        return {
            "observations": detector.observations,
            "anomalies": [
                {
                    "transformation": a.transformation,
                    "kind": a.kind,
                    "runtime": a.runtime,
                    "score": a.score if a.score != float("inf") else None,
                    "job": a.job_id,
                    "timestamp": a.timestamp,
                }
                for a in detector.anomalies
            ],
        }

    def index_html(self) -> str:
        payload = self.workflows_payload()["workflows"]
        rows = "\n".join(
            f"<tr><td><a href='/api/workflow/{w['wf_id']}'>{w['wf_id']}</a></td>"
            f"<td>{w['wf_uuid']}</td><td>{w['dag_file_name']}</td>"
            f"<td>{w['state']}</td></tr>"
            for w in payload
        )
        return (
            "<!doctype html><html><head><title>Stampede Dashboard</title></head>"
            "<body><h1>Stampede Dashboard</h1>"
            "<table border='1'><tr><th>wf_id</th><th>uuid</th>"
            f"<th>dag</th><th>state</th></tr>{rows}</table></body></html>"
        )


class _Handler(BaseHTTPRequestHandler):
    data: DashboardData  # injected by Dashboard
    metrics: Optional[MetricsRegistry]  # injected by Dashboard

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        path, _, raw_query = self.path.partition("?")
        try:
            params = dict(parse_qsl(raw_query))
        except Exception:  # pragma: no cover - parse_qsl is lenient
            params = {}
        if path == "/api/stream" or re.fullmatch(r"/api/workflow/(\d+)/stream", path):
            self._serve_stream(path, params)
            return
        try:
            body, content_type = self._route(path, params)
        except Exception as exc:  # noqa: BLE001 - answered with a status
            self._send_failure(exc)
            return
        encoded = body.encode()
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _serve_stream(self, path: str, params: dict) -> None:
        """Serve ``text/event-stream`` — headers after the first frame is
        known, so an unknown workflow is still a clean 404."""
        m = re.fullmatch(r"/api/workflow/(\d+)/stream", path)
        wf_id = int(m.group(1)) if m else None
        try:
            limit = int(params["limit"]) if "limit" in params else None
            timeout = min(float(params.get("timeout", 30.0)), _MAX_WAIT_SECONDS)
            frames = self.data.feed.sse_events(wf_id=wf_id, limit=limit, timeout=timeout)
            first = next(frames)
        except StopIteration:  # pragma: no cover - limit=0
            first = b""
            frames = iter(())
        except Exception as exc:  # noqa: BLE001 - answered with a status
            self._send_failure(exc)
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            self.wfile.write(first)
            self.wfile.flush()
            for frame in frames:
                self.wfile.write(frame)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            # the viewer closed its end mid-stream: a normal disconnect,
            # not a server error
            pass

    def _send_failure(self, exc: Exception) -> None:
        """An unknown workflow is 404, a malformed request 400, and
        anything else — an archive the server cannot read or serve, such
        as one missing rollup coverage — 500 with the reason."""
        if isinstance(exc, KeyError):
            self.send_error(404)
        elif isinstance(exc, ValueError):
            self.send_error(400, str(exc))
        else:
            self.send_error(500, str(exc))

    def _route(self, path: str, params: Optional[dict] = None) -> Tuple[str, str]:
        params = params or {}
        if path == "/" or path == "/index.html":
            return self.data.index_html(), "text/html"
        if path == "/metrics":
            registry = self.metrics if self.metrics is not None else get_registry()
            return render_prometheus(registry), PROMETHEUS_CONTENT_TYPE
        if path == "/api/workflows":
            return json.dumps(self.data.workflows_payload()), "application/json"
        m = re.fullmatch(r"/api/workflow/(\d+)", path)
        if m:
            return (
                json.dumps(self.data.workflow_payload(int(m.group(1)))),
                "application/json",
            )
        m = re.fullmatch(r"/api/workflow/(\d+)/jobs", path)
        if m:
            return (
                json.dumps(self.data.jobs_payload(int(m.group(1)))),
                "application/json",
            )
        m = re.fullmatch(r"/api/workflow/(\d+)/progress", path)
        if m:
            return (
                json.dumps(self.data.progress_payload(int(m.group(1)))),
                "application/json",
            )
        m = re.fullmatch(r"/api/workflow/(\d+)/anomalies", path)
        if m:
            return (
                json.dumps(self.data.anomalies_payload(int(m.group(1)))),
                "application/json",
            )
        m = re.fullmatch(r"/api/workflow/(\d+)/gantt", path)
        if m:
            return (
                json.dumps(self.data.gantt_payload(int(m.group(1)))),
                "application/json",
            )
        m = re.fullmatch(r"/api/poll", path) or re.fullmatch(
            r"/api/workflow/(\d+)/poll", path
        )
        if m:
            wf_id = int(m.group(1)) if m.groups() else None
            since = int(params.get("since", -1))
            timeout = float(params.get("timeout", 25.0))
            return (
                json.dumps(self.data.poll_payload(wf_id, since, timeout)),
                "application/json",
            )
        if path.startswith("/api/"):
            # a recognizably-API path that matched no route: the request
            # itself is malformed (non-numeric id, bogus sub-resource)
            raise ValueError(f"malformed API path {path!r}")
        raise KeyError(path)

    def log_message(self, *args) -> None:  # silence request logging
        pass


class Dashboard:
    """The embedded web server; serves a StampedeArchive on localhost.

    ``metrics`` selects the registry behind ``/metrics``; the default
    (None) resolves the process registry lazily per scrape, so a
    dashboard started before instrumentation still sees it.
    """

    def __init__(
        self,
        archive: StampedeArchive,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.data = DashboardData(archive)
        if metrics is not None:
            bind_live(
                metrics, cache=self.data.cache, feed=self.data.feed, archive=archive
            )
        handler = type(
            "BoundHandler", (_Handler,), {"data": self.data, "metrics": metrics}
        )
        self._server = ThreadingHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "Dashboard":
        # the interval is how long stop() waits for the accept loop to notice
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(0.05,), daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.data.feed.close()  # parked streams and long-polls end now
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "Dashboard":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def main(argv=None) -> int:
    """stampede-dashboard: serve an archive over HTTP.

    Example::

        stampede-dashboard sqlite:///run.db --port 8080
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="stampede-dashboard",
        description="Serve the Stampede performance dashboard for an archive.",
    )
    parser.add_argument("connString", help="sqlite:///run.db, a shard directory or a glob")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="port to bind (default: ephemeral)")
    parser.add_argument(
        "--once", action="store_true",
        help="print the URL and exit immediately (for scripting/tests)",
    )
    args = parser.parse_args(argv)
    from repro.archive.shard import open_archive

    archive = open_archive(args.connString)
    dashboard = Dashboard(archive, args.host, args.port, metrics=get_registry()).start()
    print(f"stampede dashboard at {dashboard.url}", flush=True)
    if args.once:
        dashboard.stop()
        return 0
    try:  # pragma: no cover - interactive loop
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover
        dashboard.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    import sys

    sys.exit(main())
