"""``stampede-bus serve`` as a supervisor sees it: a child process."""
import signal
import subprocess
import sys

import pytest

from tests.helpers import await_line, child_env


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_serve_stops_gracefully(signum):
    """SIGTERM takes the path SIGINT always took: the server is
    stopped, the summary line printed, and ``main`` returns 0 — so a
    caller wrapping it still gets to run its own ``finally``."""
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro.bus.cli", "serve", "--port", "0"],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert "serving on tcp://" in await_line(serve.stdout, "serving on")
        serve.send_signal(signum)
        out, err = serve.communicate(timeout=15)
    finally:
        serve.kill()
        serve.wait(timeout=10)
    assert serve.returncode == 0, err
    assert "stampede-bus stopped: 0 connections, 0 publishes" in out
    assert "Traceback" not in err
