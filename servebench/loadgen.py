"""Closed-loop load generator: clients, connections, per-request records.

One :class:`Conn` per client.  A group's request lines go out in one
``write`` (pipelined), answers come back in any order and are matched
by ``id``.  Interim ``progress`` frames are read and dropped.  The
clients run in lockstep (:func:`drive`).

Each answered request becomes a :class:`Record` holding its client-side
latency and whether it failed.  A response fails if it is not ``ok``,
is shed, is marked ``degraded``, or carries an ``id`` that was not
asked for.  Result payloads are kept only for requests the caller asks
to keep (the answer-check subset), so a long cache-hit run stays small.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from mixes import Group, Request

REQUEST_TIMEOUT = 120.0


@dataclass
class Record:
    id: str
    client: int
    seq: int  # request index in the client's stream
    kind: str
    request: Request
    t_send: float
    t_recv: float = 0.0
    failed: Optional[str] = None  # reason, or None when the answer is good
    nbytes: int = 0
    response: Optional[Dict[str, Any]] = None  # kept subset only

    @property
    def latency(self) -> float:
        return self.t_recv - self.t_send


def failure_reason(response: Dict[str, Any], expected_id: str) -> Optional[str]:
    if response.get("id") != expected_id:
        return f"wrong id {response.get('id')!r}"
    if not response.get("ok"):  # shed, error, deadline, draining ...
        return f"not ok: {response.get('code')}"
    if response.get("degraded"):
        return "degraded"
    if "result" not in response:
        return "no result"
    return None


class Conn:
    """One client connection with id-correlated, pipelined requests."""

    def __init__(self, client: int, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.client = client
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count()
        self._waiting: Dict[str, tuple] = {}
        self.strays = 0  # responses whose id nobody asked for
        self._task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, client: int, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 24)
        return cls(client, reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                now = time.perf_counter()
                response = json.loads(line)
                if response.get("event") == "progress":
                    continue
                entry = self._waiting.pop(str(response.get("id")), None)
                if entry is None:
                    self.strays += 1
                    continue
                record, future, keep = entry
                record.t_recv = now
                record.nbytes = len(line)
                record.failed = failure_reason(response, record.id)
                if keep or record.failed:
                    record.response = response
                future.set_result(record)
        finally:
            for record, future, _ in self._waiting.values():
                if not future.done():
                    record.t_recv = time.perf_counter()
                    record.failed = "connection closed"
                    future.set_result(record)
            self._waiting.clear()

    async def send_group(self, group: Group, seq0: int,
                         keep: Callable[[int], bool]) -> List[Record]:
        """Send every request of *group* at once; await all answers."""
        loop = asyncio.get_running_loop()
        lines, futures = [], []
        t_send = time.perf_counter()
        for i, request in enumerate(group):
            rid = f"{self.client}-{next(self._ids)}"
            record = Record(rid, self.client, seq0 + i, request["kind"],
                            request, t_send)
            future = loop.create_future()
            self._waiting[rid] = (record, future, keep(seq0 + i))
            futures.append(future)
            lines.append(json.dumps(dict(request, id=rid)).encode() + b"\n")
        self._writer.write(b"".join(lines))
        await self._writer.drain()
        done = await asyncio.wait_for(asyncio.gather(*futures),
                                      timeout=REQUEST_TIMEOUT)
        return list(done)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await self._task


@dataclass
class Client:
    """One closed-loop client walking its own request stream."""

    stream: Iterator[Group]
    seq: int = 0  # stream index of the next request

    async def step(self, conn: Conn,
                   keep: Callable[[int], bool]) -> List[Record]:
        """Send the next group and wait for all of its answers."""
        group = next(self.stream)
        records = await conn.send_group(group, self.seq, keep)
        self.seq += len(group)
        return records


async def drive(clients: List[Client], conns: List[Conn],
                seconds: Optional[float] = None,
                groups: Optional[int] = None,
                keep: Callable[[int], bool] = lambda seq: False):
    """Run client i on conns[i], in lockstep, until *seconds* pass or
    *groups* are sent: every client sends its next group only when all
    clients have their answers, so the clients' n-th groups always run
    side by side.  Returns (records, wall seconds)."""
    t0 = time.perf_counter()
    until = t0 + seconds if seconds is not None else None
    records: List[Record] = []
    sent = 0
    while (groups is None or sent < groups) and \
            (until is None or time.perf_counter() < until):
        for part in await asyncio.gather(
                *(c.step(conn, keep) for c, conn in zip(clients, conns))):
            records.extend(part)
        sent += 1
    return records, time.perf_counter() - t0
