"""Open-loop load generator over stdlib ``http.client``.

The benchmark owns this HTTP code so that a change to the program's own
client cannot change the load.  ``SENDERS`` threads take requests from
one schedule in due order.  A sender sleeps until its request is due,
sends it, and reads the whole response.  With ``keep_alive`` each
sender holds one persistent connection, as a browser does; otherwise
every request opens and closes its own connection.

Latency runs from the request's *due* time to the last byte received,
so a stall also charges every request queued behind it.  Two more
times are kept per request: ``service`` (send to last byte, what the
server and the network spent) and ``late`` (how long after it could
have sent the request the generator actually did: its own lag).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from hook.perfbench_trace import CLIENT_ID_HEADER
from schedule import Request

clock = time.perf_counter


@dataclass
class Outcome:
    """What one request got back (``status`` None: no response)."""

    status: Optional[int] = None
    body: bytes = b""
    content_type: str = ""
    worker: Optional[str] = None
    error: str = ""
    due: float = 0.0        # absolute clock() times
    sent: float = 0.0
    done: float = 0.0
    connect: Optional[float] = None   # seconds, when a connection was opened
    late: float = 0.0

    @property
    def latency(self) -> float:
        """Due time to last byte; infinite without a response."""
        if self.status is None:
            return float("inf")
        return self.done - self.due

    @property
    def service(self) -> float:
        return self.done - self.sent


class _Sender:
    def __init__(self, host: str, port: int, keep_alive: bool,
                 timeout_s: float) -> None:
        self.host, self.port = host, port
        self.keep_alive = keep_alive
        self.timeout_s = timeout_s
        self.conn: Optional[http.client.HTTPConnection] = None

    def _connection(self, outcome: Outcome) -> http.client.HTTPConnection:
        if self.conn is None:
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=self.timeout_s)
            started = clock()
            conn.connect()
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            outcome.connect = clock() - started
            self.conn = conn
        return self.conn

    def send(self, request: Request, path: str, outcome: Outcome) -> None:
        try:
            conn = self._connection(outcome)
            headers = dict(request.headers)
            headers[CLIENT_ID_HEADER] = str(request.index)
            conn.request("POST", path, body=request.body, headers=headers)
            response = conn.getresponse()
            body = response.read()
            outcome.done = clock()
            outcome.status = response.status
            outcome.body = body
            outcome.content_type = response.getheader("Content-Type", "")
            outcome.worker = response.getheader("X-Repro-Worker")
            if response.will_close or not self.keep_alive:
                self.close()
        except (OSError, http.client.HTTPException) as exc:
            outcome.done = clock()
            outcome.error = f"{type(exc).__name__}: {exc}"
            self.close()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def run_open_loop(requests: Sequence[Request], host: str, port: int, *,
                  senders: int, keep_alive: bool, start: float,
                  timeout_s: float = 20.0) -> List[Outcome]:
    """Send every request at ``start + request.due``; return outcomes in
    schedule order.  Blocks until every sender has finished."""
    outcomes = [Outcome(due=start + request.due) for request in requests]
    lock = threading.Lock()
    cursor = [0]

    def loop() -> None:
        sender = _Sender(host, port, keep_alive, timeout_s)
        free_at = clock()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(requests):
                    return
                request, outcome = requests[index], outcomes[index]
                wait = outcome.due - clock()
                if wait > 0:
                    time.sleep(wait)
                outcome.sent = clock()
                outcome.late = max(0.0, outcome.sent
                                   - max(outcome.due, free_at))
                sender.send(request, "/" + request.route, outcome)
                free_at = clock()
        finally:
            sender.close()

    threads = [threading.Thread(target=loop, name=f"perfbench-sender-{i}",
                                daemon=True) for i in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def get_json(host: str, port: int, path: str, timeout_s: float = 10.0):
    """GET ``path`` on a fresh connection and decode the JSON body."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status}")
        return json.loads(body)
    finally:
        conn.close()
