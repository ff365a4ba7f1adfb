"""Streaming read layer (repro.core.live): single-flight cache + SSE.

The contract under test: N concurrent viewers cost one computation per
archive commit (the commit-sequence cache), and a streaming viewer sees
an immediate snapshot followed by monotone progress frames — counters
only grow, ``running`` only resolves forward — no matter when it
connects relative to the load.
"""
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import live
from repro.core.dashboard import Dashboard, DashboardData
from repro.core.live import LiveFeed, ReadCache
from repro.core.rollup import drop_rollups
from repro.loader import load_events, make_loader
from repro.model.entities import WorkflowRow
from repro.obs.metrics import MetricsRegistry

from tests.bus.test_net import wait_until
from tests.helpers import diamond_events

XWF2 = "22222222-3333-4444-8555-666666666666"


def _parse_frame(raw):
    """One SSE frame -> (event name, id or None, decoded data payload)."""
    text = raw.decode() if isinstance(raw, bytes) else raw
    event = frame_id = data = None
    for line in text.strip().split("\n"):
        key, _, value = line.partition(": ")
        if key == "event":
            event = value
        elif key == "id":
            frame_id = int(value)
        elif key == "data":
            data = json.loads(value)
    return event, frame_id, data


def _split_frames(body: bytes):
    return [f for f in body.split(b"\n\n") if f.strip()]


@pytest.fixture
def loader():
    return load_events(diamond_events())


def _watchers():
    return [t for t in threading.enumerate() if t.name == "livefeed-watch"]


def _gone_within(seconds):
    deadline = time.monotonic() + seconds
    while _watchers() and time.monotonic() < deadline:
        time.sleep(0.001)
    return not _watchers()


@pytest.fixture(autouse=True)
def no_watcher_outlives_its_test():
    """Every feed's watcher ends with its last waiter: none may leak
    from one test into the next."""
    yield
    assert _gone_within(1.0)


def _commit(loader, n):
    """One more workflow, one more commit."""
    loader.process_all(diamond_events(xwf=f"0000000{n}-3333-4444-8555-666666666666"))


class TestReadCache:
    def test_hit_after_miss(self, loader):
        cache = ReadCache(loader.archive)
        calls = []

        def compute():
            calls.append(1)
            return {"n": len(calls)}

        assert cache.get("k", compute) == {"n": 1}
        assert cache.get("k", compute) == {"n": 1}
        assert len(calls) == 1
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_commit_invalidates_not_ttl(self, loader):
        """The entry lives exactly until the commit sequence moves: no
        recompute while the archive is quiet, one recompute after."""
        cache = ReadCache(loader.archive)
        calls = []
        for _ in range(5):
            cache.get("k", lambda: calls.append(1))
        assert len(calls) == 1
        loader.process_all(diamond_events(xwf=XWF2))
        cache.get("k", lambda: calls.append(1))
        cache.get("k", lambda: calls.append(1))
        assert len(calls) == 2

    def test_no_rollup_coverage_bypasses(self):
        # commit_seq == 0 means no invalidation signal exists; serving a
        # cached value would be stale forever, so every request computes
        norollup = load_events(diamond_events(), rollup=False)
        cache = ReadCache(norollup.archive)
        calls = []
        for _ in range(3):
            cache.get("k", lambda: calls.append(1))
        assert len(calls) == 3
        assert cache.stats()["hits"] == 0

    def test_single_flight_coalesces_concurrent_readers(self, loader):
        cache = ReadCache(loader.archive)
        release = threading.Event()
        computes = []

        def slow():
            computes.append(1)
            release.wait(5)
            return "value"

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(cache.get("k", slow)))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        time.sleep(0.1)  # let every thread reach the flight
        release.set()
        for t in threads:
            t.join(5)
        assert results == ["value"] * 8
        assert len(computes) == 1
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 7

    def test_leader_failure_does_not_poison_key(self, loader):
        cache = ReadCache(loader.archive)
        attempts = []

        def compute():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("boom")
            return "ok"

        with pytest.raises(RuntimeError):
            cache.get("k", compute)
        assert cache.get("k", compute) == "ok"

    def test_waiters_retry_after_leader_failure(self, loader):
        """A leader that dies mid-compute wakes its waiters; one of them
        becomes the new leader and the rest share its result."""
        cache = ReadCache(loader.archive)
        entered = threading.Event()
        release = threading.Event()
        guard = threading.Lock()
        state = {"first": True}

        def compute():
            with guard:
                first = state["first"]
                state["first"] = False
            if first:
                entered.set()
                release.wait(5)
                raise RuntimeError("leader died")
            return "recovered"

        results, errors = [], []

        def worker():
            try:
                results.append(cache.get("k", compute))
            except RuntimeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        threads[0].start()
        assert entered.wait(5)
        for t in threads[1:]:
            t.start()
        time.sleep(0.05)  # park the waiters on the doomed flight
        release.set()
        for t in threads:
            t.join(5)
        assert len(errors) == 1
        assert results == ["recovered"] * 3


class TestLiveFeed:
    def test_wait_for_change_immediate_on_stale_since(self, loader):
        feed = LiveFeed(loader.archive)
        start = time.monotonic()
        current = feed.wait_for_change(-1, timeout=5.0)
        assert time.monotonic() - start < 1.0
        assert current == feed.version() > 0

    def test_wait_for_change_times_out_unchanged(self, loader):
        feed = LiveFeed(loader.archive, poll_interval=0.01)
        seq = feed.version()
        start = time.monotonic()
        assert feed.wait_for_change(seq, timeout=0.15) == seq
        assert time.monotonic() - start >= 0.15

    def test_sequence_reads_do_not_grow_with_waiters(self, loader, monkeypatch):
        """One watcher reads for everybody: 8 parked callers cost the
        reads of one, a seed plus one per tick."""
        reads = []
        plain = live.commit_seq
        monkeypatch.setattr(
            live, "commit_seq", lambda archive: reads.append(1) or plain(archive)
        )
        tick, duration = 0.01, 0.3
        seq = plain(loader.archive)
        counts = {}
        for callers in (1, 8):
            feed = LiveFeed(loader.archive, poll_interval=tick)
            del reads[:]
            threads = [
                threading.Thread(target=feed.wait_for_change, args=(seq, duration))
                for _ in range(callers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(5)
                assert not t.is_alive()
            assert _gone_within(1.0)
            counts[callers] = len(reads)
        ceiling = duration / tick + 2  # the seed, and a tick under way at the end
        assert 2 < counts[1] <= ceiling  # it did tick, and a poll per
        assert 2 < counts[8] <= ceiling  # viewer would be 8 x as many

    def test_one_commit_wakes_every_waiter_within_two_ticks(self, loader):
        tick = 0.05
        feed = LiveFeed(loader.archive, poll_interval=tick)
        seq = feed.version()
        woke = []

        def wait():
            current = feed.wait_for_change(seq, 10.0)
            woke.append((time.monotonic(), current))

        threads = [threading.Thread(target=wait) for _ in range(8)]
        for t in threads:
            t.start()
        wait_until(lambda: feed.waiters >= 8)
        _commit(loader, 1)
        committed = time.monotonic()
        for t in threads:
            t.join(5)
        assert len(woke) == 8
        assert {current for _, current in woke} == {seq + 1}
        assert max(at for at, _ in woke) - committed < 2 * tick + 0.05
        assert feed.waiters == 0

    def test_watcher_ends_with_its_last_waiter(self, loader):
        tick = 0.02
        feed = LiveFeed(loader.archive, poll_interval=tick)
        seq = feed.version()
        assert not _watchers()  # lazily started
        first = threading.Thread(target=feed.wait_for_change, args=(seq, 0.1))
        second = threading.Thread(target=feed.wait_for_change, args=(seq, 0.2))
        first.start()
        second.start()
        first.join(5)
        assert len(_watchers()) == 1  # one for both, and the second still waits
        second.join(5)
        assert _gone_within(2 * tick + 0.05)
        # and a later waiter gets a new one
        assert feed.wait_for_change(seq, 0.05) == seq
        assert _gone_within(2 * tick + 0.05)

    def test_watcher_failure_is_raised_in_the_waiters(self, loader, monkeypatch):
        feed = LiveFeed(loader.archive, poll_interval=0.01)
        seq = feed.version()
        errors = []

        def wait():
            try:
                feed.wait_for_change(seq, 5.0)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=wait) for _ in range(3)]
        for t in threads:
            t.start()
        wait_until(lambda: feed.waiters >= 3)

        def down(_archive):
            raise RuntimeError("archive unreadable")

        with monkeypatch.context() as patch:
            patch.setattr(live, "commit_seq", down)
            for t in threads:
                t.join(5)
        assert errors == ["archive unreadable"] * 3
        assert _gone_within(1.0)
        assert feed.wait_for_change(-1, 1.0) == seq  # the next wait starts afresh

    def test_close_releases_waiters(self, loader):
        feed = LiveFeed(loader.archive, poll_interval=0.01)
        seq = feed.version()
        frames = []
        stream = threading.Thread(
            target=lambda: frames.extend(feed.sse_events(timeout=30.0))
        )
        stream.start()
        wait_until(lambda: feed.waiters >= 1)
        feed.close()
        stream.join(5)
        assert not stream.is_alive()
        assert [_parse_frame(f)[0] for f in frames] == ["progress", "idle"]
        assert not _watchers()
        assert feed.wait_for_change(seq, 30.0) == seq  # at once, and unwatched
        assert not _watchers()

    def test_snapshot_unknown_workflow_raises(self, loader):
        with pytest.raises(KeyError):
            LiveFeed(loader.archive).snapshot(999)

    def test_snapshot_degrades_without_rollups(self):
        norollup = load_events(diamond_events(), rollup=False)
        snap = LiveFeed(norollup.archive).snapshot(1)
        assert snap["state"] == "success"
        assert snap["commit_seq"] == 0
        assert "events" not in snap  # state-only fallback

    def test_sse_snapshot_then_idle(self, loader):
        feed = LiveFeed(loader.archive, poll_interval=0.01)
        frames = list(feed.sse_events(wf_id=1, timeout=0.1))
        assert len(frames) == 2
        name, frame_id, data = _parse_frame(frames[0])
        assert name == "progress"
        assert frame_id == data["commit_seq"] > 0
        assert data["state"] == "success"
        assert data["jobs_succeeded"] == data["jobs_total"] > 0
        name, _, idle = _parse_frame(frames[1])
        assert name == "idle"
        assert idle["commit_seq"] == data["commit_seq"]

    def test_sse_limit_caps_progress_frames(self, loader):
        frames = list(
            LiveFeed(loader.archive).sse_events(wf_id=1, limit=1, timeout=5.0)
        )
        assert len(frames) == 1
        assert _parse_frame(frames[0])[0] == "progress"

    def test_sse_connect_mid_load_is_monotonic(self):
        """A viewer that connects halfway through ingest gets the current
        truth immediately, then frames whose counters only grow until the
        workflow resolves."""
        events = list(diamond_events(retries={"c": 2}))
        cut = len(events) // 2
        loader = make_loader(batch_size=5)
        loader.process_all(events[:cut])

        feed = LiveFeed(loader.archive, poll_interval=0.01)
        gen = feed.sse_events(wf_id=1, timeout=2.0)
        name, _, first = _parse_frame(next(gen))
        assert name == "progress"
        assert first["state"] == "running"  # mid-load truth, not zero

        loader.process_all(events[cut:])
        seen = [first]
        for _ in range(20):
            name, _, data = _parse_frame(next(gen))
            if name == "idle":
                break
            seen.append(data)
            if data["state"] == "success":
                break
        assert seen[-1]["state"] == "success"
        for prev, cur in zip(seen, seen[1:]):
            for field in (
                "events",
                "tasks_succeeded",
                "jobs_succeeded",
                "invocations",
                "commit_seq",
            ):
                assert cur[field] >= prev[field], field
            # running only resolves forward
            assert not (prev["state"] != "running" and cur["state"] == "running")


class TestDashboardStreamingHttp:
    def test_concurrent_identical_requests_one_computation(self, loader):
        """The regression the cache exists to prevent: N viewers of one
        endpoint must trigger exactly one computation, not N scans."""
        with Dashboard(loader.archive) as dash:
            url = dash.url + "/api/workflow/1"
            barrier = threading.Barrier(8)
            bodies = []
            errors = []

            def fetch():
                barrier.wait(5)
                try:
                    with urllib.request.urlopen(url, timeout=10) as resp:
                        bodies.append(resp.read())
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=fetch) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert not errors
            assert len(set(bodies)) == 1  # every viewer saw the same payload
            stats = dash.data.cache.stats()
            assert stats["misses"] == 1
            assert stats["hits"] == 7

    def test_sse_over_http(self, loader):
        with Dashboard(loader.archive) as dash:
            with urllib.request.urlopen(
                dash.url + "/api/workflow/1/stream?timeout=0.1", timeout=10
            ) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == "text/event-stream"
                frames = _split_frames(resp.read())
            assert [_parse_frame(f)[0] for f in frames] == ["progress", "idle"]
            _, _, data = _parse_frame(frames[0])
            assert data["wf_id"] == 1

    def test_global_stream_lists_all_workflows(self, loader):
        loader.process_all(diamond_events(xwf=XWF2))
        with Dashboard(loader.archive) as dash:
            with urllib.request.urlopen(
                dash.url + "/api/stream?limit=1", timeout=10
            ) as resp:
                frames = _split_frames(resp.read())
            _, _, data = _parse_frame(frames[0])
            assert len(data["workflows"]) == 2

    def test_client_disconnect_leaves_server_healthy(self, loader):
        with Dashboard(loader.archive) as dash:
            host, port = dash.address
            conn = http.client.HTTPConnection(host, port, timeout=5)
            conn.request("GET", "/api/workflow/1/stream?timeout=1")
            resp = conn.getresponse()
            assert resp.status == 200
            assert resp.read(16)  # first frame started flowing
            conn.close()  # hang up mid-stream
            # the handler swallows the broken pipe; the server keeps serving
            with urllib.request.urlopen(
                dash.url + "/api/workflows", timeout=10
            ) as after:
                assert after.status == 200

    def test_long_poll(self, loader):
        with Dashboard(loader.archive) as dash:
            # since=-1: immediate snapshot
            with urllib.request.urlopen(
                dash.url + "/api/workflow/1/poll?since=-1", timeout=10
            ) as resp:
                data = json.loads(resp.read())
            assert data["state"] == "success"
            seq = data["commit_seq"]
            assert seq > 0
            # since=current: blocks for the timeout, then returns unchanged
            start = time.monotonic()
            with urllib.request.urlopen(
                dash.url + f"/api/poll?since={seq}&timeout=0.2", timeout=10
            ) as resp:
                data = json.loads(resp.read())
            assert time.monotonic() - start >= 0.2
            assert data["commit_seq"] == seq

    def test_stream_error_contract(self, loader):
        with Dashboard(loader.archive) as dash:
            for path, code in (
                ("/api/workflow/999/stream", 404),
                ("/api/workflow/999/poll", 404),
                ("/api/workflow/1/stream?limit=abc", 400),
            ):
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(dash.url + path, timeout=10)
                assert err.value.code == code, path

    def test_metrics_under_streaming_load(self, loader):
        registry = MetricsRegistry()
        with Dashboard(loader.archive, metrics=registry) as dash:
            for _ in range(3):
                urllib.request.urlopen(
                    dash.url + "/api/workflows", timeout=10
                ).read()
            for _ in range(2):
                urllib.request.urlopen(
                    dash.url + "/api/workflow/1/stream?limit=1", timeout=10
                ).read()
            with urllib.request.urlopen(dash.url + "/metrics", timeout=10) as resp:
                body = resp.read().decode()
        for name in (
            "stampede_dashboard_cache_hits_total",
            "stampede_dashboard_cache_misses_total",
            "stampede_dashboard_streams_total",
            "stampede_dashboard_stream_events_total",
            "stampede_rollup_commit_seq",
            "stampede_rollup_lag_seconds",
        ):
            assert name in body, name
        assert "stampede_dashboard_cache_hits_total 2" in body
        assert "stampede_dashboard_streams_total 2" in body


    def test_stream_of_a_vanished_workflow_ends_with_an_error_frame(
        self, loader, capfd
    ):
        """Tiering moves a finished workflow out of the hot archive
        (rollup rows dropped, hot rows deleted): its stream must end with
        a frame saying so, not with a traceback and a cut connection."""
        with Dashboard(loader.archive) as dash:
            host, port = dash.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", "/api/workflow/1/stream?timeout=10")
            resp = conn.getresponse()
            assert resp.status == 200
            first = b""
            while not first.endswith(b"\n\n"):
                first += resp.read(1)
            name, seq, _ = _parse_frame(first)
            assert name == "progress"
            _commit(loader, 1)  # one ordinary commit ...
            with loader.archive.transaction():  # ... then wf 1 is tiered away
                drop_rollups(loader.archive, [1])
                loader.archive.delete(WorkflowRow, {"wf_id": [1]})
            frames = _split_frames(resp.read())  # to a clean EOF
            conn.close()
        names = [_parse_frame(f)[0] for f in frames]
        assert names[-1] == "error"
        assert set(names[:-1]) <= {"progress"}
        _, _, error = _parse_frame(frames[-1])
        assert "KeyError" in error["error"]
        assert seq <= error["commit_seq"] <= seq + 1  # the last frame it showed
        assert "Traceback" not in capfd.readouterr().err

    def test_stalled_viewer_delays_nobody(self, loader):
        tick = live.WATCH_TICK
        with Dashboard(loader.archive) as dash:
            host, port = dash.address
            stalled = socket.socket()
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
            stalled.connect((host, port))
            stalled.sendall(b"GET /api/stream?timeout=30 HTTP/1.0\r\n\r\n")
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", "/api/stream?timeout=30")
            resp = conn.getresponse()
            lags = []
            try:
                wait_until(lambda: dash.data.feed.waiters >= 2)
                for n in range(1, 6):
                    _commit(loader, n)
                    committed = time.monotonic()
                    frame = b""
                    while True:  # the initial snapshot first, then one per commit
                        frame += resp.read(1)
                        if frame.endswith(b"\n\n"):
                            _, _, data = _parse_frame(frame)
                            if len(data["workflows"]) == 1 + n:
                                break
                            frame = b""
                    lags.append(time.monotonic() - committed)
            finally:
                stalled.close()
                conn.close()
        assert max(lags) < 2 * tick + 0.05

    def test_stop_ends_parked_streams_and_the_watcher(self, loader):
        dash = Dashboard(loader.archive).start()
        host, port = dash.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("GET", "/api/stream?timeout=60")
        resp = conn.getresponse()
        wait_until(lambda: dash.data.feed.waiters >= 1)
        assert len(_watchers()) == 1
        dash.stop()
        assert not _watchers()
        names = [_parse_frame(f)[0] for f in _split_frames(resp.read())]
        conn.close()
        assert names == ["progress", "idle"]

    def test_waiters_gauge(self, loader):
        registry = MetricsRegistry()
        with Dashboard(loader.archive, metrics=registry) as dash:
            gauge = "stampede_dashboard_stream_waiters"
            assert registry.snapshot()[gauge] == 0
            with urllib.request.urlopen(
                dash.url + "/api/stream?timeout=0.3", timeout=10
            ) as resp:
                wait_until(lambda: dash.data.feed.waiters >= 1)
                assert registry.snapshot()[gauge] == 1
                resp.read()
            assert registry.snapshot()[gauge] == 0


class TestDashboardDataCaching:
    def test_every_payload_routes_through_cache(self, loader):
        data = DashboardData(loader.archive)
        data.workflows_payload()
        data.workflow_payload(1)
        data.jobs_payload(1)
        data.progress_payload(1)
        data.gantt_payload(1)
        data.anomalies_payload(1)
        misses = data.cache.stats()["misses"]
        # a second identical round costs nothing new
        data.workflows_payload()
        data.workflow_payload(1)
        data.jobs_payload(1)
        data.progress_payload(1)
        data.gantt_payload(1)
        data.anomalies_payload(1)
        stats = data.cache.stats()
        assert stats["misses"] == misses == 6
        assert stats["hits"] == 6
