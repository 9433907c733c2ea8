"""One step log for both stream planes.

Every test runs on an in-process stream (``local``) and on a stream
brokered by the directory daemon (``flexio``): the retention policy, the
per-reader cursors and the typed loss are the same :class:`StepLog` on
both.
"""

import contextlib
import itertools
import json
import time
import urllib.request

import numpy as np
import pytest

from repro.adios import EndOfStream, StepLost, StepStatus, StreamFailure
from repro.core.directory import TenantSpec
from repro.core.steplog import CAPACITY, StepLog, StepState, StreamStalled
from repro.core.stream import stream_registry
from repro.net.client import connect
from repro.net.server import DirectoryDaemon
from repro.obs.live import LiveTelemetryServer
from repro.obs.live import metric_name as prometheus_name
from repro.obs.names import (
    M_STEPLOG_EVICTED_STEPS,
    M_STEPLOG_MAX_READER_LAG,
    M_STEPLOG_RETAINED_BYTES,
    M_STEPLOG_RETAINED_STEPS,
)

PLANES = ["local", "flexio"]
_names = itertools.count()


@pytest.fixture()
def daemon():
    d = DirectoryDaemon(
        tenants=[TenantSpec("public")], telemetry=False, lease_interval=0.05
    )
    d.start()
    yield d
    d.stop()


class _Plane:
    """One fresh stream on one plane: a writer, readers on demand, and
    the stream's step log."""

    def __init__(self, client, name, log_of):
        self.client = client
        self.name = name
        self.writer = client.open(name, "w")
        self._log_of = log_of

    @property
    def log(self) -> StepLog:
        return self._log_of()

    def reader(self):
        return self.client.open(self.name, "r", timeout=2.0)

    def publish(self, step):
        self.writer.begin_step()
        self.writer.write("v", np.full(4, float(step)))
        self.writer.end_step()


@contextlib.contextmanager
def _plane(request, plane):
    name = f"steplog.{plane}.{next(_names)}"
    if plane == "local":
        client = connect("local://", params="sync=true")
        try:
            yield _Plane(client, name, lambda: stream_registry._states[name].log)
        finally:
            stream_registry.close_stream(name)
        return
    daemon = request.getfixturevalue("daemon")
    with connect(f"flexio://{daemon.host}:{daemon.control_port}/public") as client:
        yield _Plane(client, name, lambda: daemon._streams[f"public/{name}"].log)


def _drain(reader):
    """begin_step until End-of-Stream: the statuses, and the value of
    every step read OK."""
    statuses, values = [], []
    while True:
        status = reader.begin_step(timeout=2.0)
        statuses.append(status)
        if status is StepStatus.EndOfStream:
            return statuses, values
        assert status is not StepStatus.NotReady, statuses
        if status is StepStatus.OK:
            data = reader.read_block("v", 0)
            assert reader.current_step == int(data[0])
            values.append(int(data[0]))
            reader.end_step()


def _wait_for(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


@pytest.mark.parametrize("plane", PLANES)
def test_lockstep_reader_keeps_at_most_two_steps(request, plane):
    with _plane(request, plane) as p:
        r = p.reader()
        peak = 0
        for step in range(1000):
            p.publish(step)
            peak = max(peak, len(p.log))
            assert r.begin_step(timeout=2.0) is StepStatus.OK
            assert r.read_block("v", 0)[0] == step
            r.end_step()
            peak = max(peak, len(p.log))
        assert peak <= 2
        assert p.log.evicted == 0
        p.writer.close()
        assert r.begin_step(timeout=2.0) is StepStatus.EndOfStream
        r.close()


@pytest.mark.parametrize("plane", PLANES)
def test_reader_behind_window_gets_one_typed_loss(request, plane):
    total = CAPACITY + 10
    with _plane(request, plane) as p:
        r = p.reader()
        for step in range(total):
            p.publish(step)
        assert len(p.log) == CAPACITY
        p.writer.close()
        statuses, values = _drain(r)
        # One OtherError for steps 0..9, then the oldest retained step on.
        assert statuses.count(StepStatus.OtherError) == 1
        assert statuses[0] is StepStatus.OtherError
        assert values == list(range(10, total))
        r.close()


@pytest.mark.parametrize("plane", PLANES)
def test_closed_reader_stops_pinning_steps(request, plane):
    with _plane(request, plane) as p:
        slow = p.reader()
        fast = p.reader()
        for step in range(20):
            p.publish(step)
            assert fast.begin_step(timeout=2.0) is StepStatus.OK
            fast.end_step()
        assert len(p.log) == 20  # the slow reader still sits on step 0
        slow.close()
        assert _wait_for(lambda: len(p.log) <= 2), len(p.log)
        fast.close()


@pytest.mark.parametrize("plane", PLANES)
def test_late_reader_drains_every_retained_step(request, plane):
    total = CAPACITY + 5
    with _plane(request, plane) as p:
        for step in range(total):
            p.publish(step)
        p.writer.close()
        r = p.reader()
        statuses, values = _drain(r)
        assert statuses.count(StepStatus.OtherError) == 1
        assert values == list(range(total - CAPACITY, total))
        r.close()


@pytest.mark.parametrize("plane", PLANES)
def test_retention_is_visible_on_metrics_and_monitor(request, plane):
    with _plane(request, plane) as p:
        r = p.reader()  # attached on step 0, never moves
        for step in range(CAPACITY + 3):
            p.publish(step)
        metrics = p.log._monitor.metrics
        labels = p.log._labels
        assert metrics.gauge(M_STEPLOG_RETAINED_STEPS, labels).value == CAPACITY
        assert metrics.gauge(M_STEPLOG_RETAINED_BYTES, labels).value == p.log.nbytes
        assert metrics.gauge(M_STEPLOG_MAX_READER_LAG, labels).value == CAPACITY + 2
        assert metrics.counter(M_STEPLOG_EVICTED_STEPS, labels).value == 3

        state = (stream_registry._states[p.name] if plane == "local" else
                 request.getfixturevalue("daemon")._streams[f"public/{p.name}"])
        server = LiveTelemetryServer(states=lambda: {p.name: state})
        server.start()
        try:
            def get(path):
                with urllib.request.urlopen(f"{server.url}{path}", timeout=5) as f:
                    return f.read().decode()

            text = get("/metrics")
            (row,) = json.loads(get("/streams"))["streams"]
        finally:
            server.stop()
        for metric in (M_STEPLOG_RETAINED_STEPS, M_STEPLOG_RETAINED_BYTES,
                       M_STEPLOG_MAX_READER_LAG, M_STEPLOG_EVICTED_STEPS):
            assert prometheus_name(metric) in text
        assert row["retained"] == CAPACITY
        assert row["reader_lag"] == CAPACITY + 2
        r.close()


# ---------------------------------------------------------------------------
# The log on its own
# ---------------------------------------------------------------------------

def test_get_decides_ready_lost_eos_and_failure():
    log = StepLog("unit")
    with pytest.raises(StreamStalled):
        log.get(0)
    log.append(0, "a", 1)
    log.append(1, None, 0, StepState.LOST, "wire fell out")
    assert log.get(0) == "a"
    with pytest.raises(StepLost, match="lost: wire fell out") as exc_info:
        log.get(1)
    assert exc_info.value.last == 1
    log.eos = 2
    with pytest.raises(EndOfStream) as exc_info:
        log.get(2)
    assert not isinstance(exc_info.value, StreamFailure)
    log.error = "lease expired"
    with pytest.raises(StreamFailure, match="lease expired"):
        log.get(2)


def test_cursor_frees_only_what_every_reader_passed():
    log = StepLog("unit")
    for i in range(5):
        log.append(i, i, 10)
    log.attach("a")
    log.attach("b")
    assert log.get(3, "a") == 3
    assert len(log) == 5  # b still sits on step 0
    assert log.get(2, "b") == 2
    assert [i for i, _ in log.items()] == [2, 3, 4]
    assert log.nbytes == 30 and log.peak_nbytes == 50
    assert log.lag() == 2
    log.detach("b")
    assert [i for i, _ in log.items()] == [3, 4]
    log.detach("a")  # no reader left: a late reader may still come
    assert len(log) == 2
