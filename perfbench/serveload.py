"""The ``dashboard`` workload's server process and closed-loop clients.

The server is ``repro serve --data DIR`` in a subprocess; the clients are
keep-alive ``http.client`` connections in threads of the harness.  Each
client takes the next op of the shared seeded stream only after its
previous response arrived (a closed loop).

Writes are applied in stream order, one at a time, so the data version
a read may have observed is known: at least the number of inserts
acknowledged when it was sent, at most the number sent when its response
arrived.  :class:`perfbench.reference.Reference` accepts the rows of any
version in that range.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import threading
import time
from pathlib import Path

from perfbench import measure

#: The served configuration (``repro serve`` flags besides --data/--port).
SERVER_FLAGS = ("--strategy", "gmdj", "--rollup", "subsume",
                "--workers", "2")

#: Concurrent keep-alive client connections (no more than the cores here).
CONNECTIONS = 2

HOST = "127.0.0.1"


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess."""

    def __init__(self, python: str, data_dir: Path, env: dict,
                 log_path: Path, cpu: int):
        self.port = free_port()
        self.command = [python, "-m", "repro", "serve", "--data",
                        str(data_dir), "--port", str(self.port),
                        *SERVER_FLAGS]
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            self.command, env=env, stdout=self._log,
            stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))

    def wait_healthy(self, timeout: float = 120.0) -> float:
        """Seconds from spawn to the first ``/healthz`` 200."""
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}")
            try:
                connection = http.client.HTTPConnection(HOST, self.port,
                                                        timeout=5)
                try:
                    connection.request("GET", "/healthz")
                    if connection.getresponse().status == 200:
                        return time.perf_counter() - self.started
                finally:
                    connection.close()
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("repro serve did not become healthy")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=20)
        finally:
            self._log.close()


class _Client:
    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection(HOST, port, timeout=120)

    def post(self, path: str, payload: dict) -> tuple[int, dict]:
        self.connection.request("POST", path, body=json.dumps(payload),
                                headers={"Content-Type": "application/json"})
        response = self.connection.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.connection.close()


class _Versions:
    """Applied-write bookkeeping shared by the client threads."""

    def __init__(self) -> None:
        self.condition = threading.Condition()
        self.acked = 0
        self.sent = 0

    def begin_write(self, version: int) -> None:
        with self.condition:
            self.condition.wait_for(lambda: self.acked == version - 1)
            self.sent = version

    def end_write(self, version: int) -> None:
        with self.condition:
            self.acked = version
            self.condition.notify_all()


def closed_loop(port: int, ops: list[dict], inserts: list[list[tuple]],
                seconds: float) -> tuple[list[dict], float]:
    """Drive the server for ``seconds``; returns (records, wall seconds).

    Each record holds the op index and kind, the client latency, the
    HTTP status (or the client-side error) and the response fields the
    benchmark reads.  Read records keep their rows for verification.
    """
    lock = threading.Lock()
    cursor = iter(ops)
    records: list[dict] = []
    versions = _Versions()
    deadline = time.perf_counter() + seconds

    def next_op():
        with lock:
            if time.perf_counter() >= deadline:
                return None
            return next(cursor, None)

    def client_loop():
        client = _Client(port)
        try:
            while (op := next_op()) is not None:
                records.append(_send(client, op, inserts, versions))
        finally:
            client.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=client_loop)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 300)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("dashboard client threads did not finish")
    wall = time.perf_counter() - started
    records.sort(key=lambda record: record["index"])
    return records, wall


def write_phase(port: int, first_version: int, count: int,
                inserts: list[list[tuple]], final_read: dict) -> list[dict]:
    """``count`` inserts on one connection with no reads in flight, then
    ``final_read`` — the source of ``write_p50_ms``.  Returns records in
    the same shape as :func:`closed_loop`'s."""
    versions = _Versions()
    versions.acked = versions.sent = first_version - 1
    client = _Client(port)
    try:
        records = [
            _send(client, {"index": -1, "kind": "insert",
                            "version": version}, inserts, versions)
            for version in range(first_version, first_version + count)
        ]
        records.append(_send(client, final_read, inserts, versions))
    finally:
        client.close()
    return records


def _send(client: _Client, op: dict, inserts, versions: _Versions) -> dict:
    record: dict = {"index": op["index"], "kind": op["kind"],
                    "cal_ms": measure.calibrate()}
    if op["kind"] == "insert":
        version = op["version"]
        payload = {"statement": {"op": "insert", "name": "orders",
                                 "rows": inserts[version - 1]}}
        versions.begin_write(version)
        path = "/ddl"
    else:
        payload = {"sql": op["texts"][0]}
        record["v_lo"] = versions.acked
        path = "/query"
    started = time.perf_counter()
    try:
        status, body = client.post(path, payload)
    except (OSError, http.client.HTTPException, ValueError) as error:
        status, body = None, {}
        record["error"] = f"{type(error).__name__}: {error}"
    record["ms"] = (time.perf_counter() - started) * 1000.0
    record["status"] = status
    if op["kind"] == "insert":
        versions.end_write(op["version"])
        record["version"] = op["version"]
        record["row_count"] = body.get("row_count")
    else:
        record["v_hi"] = versions.sent
        for key in ("rows", "served_by", "elapsed_ms", "detail_scans", "io"):
            record[key] = body.get(key)
        record["counters"] = body.get("metrics", {}).get("counters", {})
    if status is not None and status != 200:
        record["error_body"] = body.get("error")
    return record

