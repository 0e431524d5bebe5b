"""Transport-level fault injection — a scriptable flaky TCP proxy.

The chaos harness in ``tests/fabric_chaos.py`` injects faults at the
*application* layer (a worker that dies, duplicates, or replays).
:class:`FlakyProxy` injects them at the *transport* layer instead: it
sits between fabric clients and a coordinator, forwards bytes in both
directions, and — on a script keyed by global request ordinal — cuts
connections, tears frames mid-byte, stalls past the client's socket
timeout, or drops into a full partition.  The DAVOS-style premise:
resilience claims are proven with injected faults, not hoped about.

Everything here is plain byte plumbing with no knowledge of the
fabric's JSON protocol beyond "requests are newline-terminated", so
the proxy can front any newline-framed peer.  It lives in ``src`` (not
the test tree) because three consumers share it: the fabric chaos
tests, the fuzzlab's ``fabric_drop_after_ops`` /
``fabric_partition_ticks`` scenario axes, and the ``fabric-smoke``
drill's proxied worker.

Fault semantics, by scripted request ordinal (1-based, counted across
*all* proxied connections):

- **drop** — the request is swallowed and both sides of the
  connection are cut: the client wrote an op and will read EOF, the
  classic lost-in-flight exchange reconnect-and-replay exists for.
- **tear** — a truncated prefix of the request is forwarded (no
  newline) and the connection is cut: the coordinator sees a torn
  frame (answers ``bad-request`` into a dead socket, drops the
  conn), the client sees EOF.
- **stall** — forwarding pauses for ``stall_seconds`` before the
  request goes through: a client whose socket timeout is shorter
  gives up (``socket.timeout`` → retryable) and replays on a fresh
  connection while the stalled op may *still arrive later* — the
  at-least-once duplication the journal's dedup must absorb.
- **partition** (:meth:`FlakyProxy.partition`) — every live
  connection is cut and new ones are accepted-then-closed until
  :meth:`FlakyProxy.heal`; the upstream is unreachable through the
  proxy, full stop.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field

from repro.wire import AcceptLoop


@dataclass(frozen=True)
class ChaosScript:
    """Which request ordinals misbehave, and how.

    Ordinals are 1-based and global across every connection the proxy
    carries — "drop the 4th request this proxy ever sees", not "the
    4th on some connection" — which keeps a multi-worker drill's total
    fault count exact even though thread interleaving decides *which*
    worker absorbs each fault (the byte-identity contract must hold
    regardless, so that nondeterminism is part of the drill).
    """

    drop_after_requests: tuple[int, ...] = ()
    tear_after_requests: tuple[int, ...] = ()
    stall_after_requests: tuple[int, ...] = ()
    stall_seconds: float = 1.0

    def __post_init__(self) -> None:
        claimed: set[int] = set()
        for name in (
            "drop_after_requests",
            "tear_after_requests",
            "stall_after_requests",
        ):
            ordinals = getattr(self, name)
            if any(ordinal < 1 for ordinal in ordinals):
                raise ValueError(f"{name}: ordinals are 1-based")
            overlap = claimed & set(ordinals)
            if overlap:
                raise ValueError(
                    f"request ordinal(s) {sorted(overlap)} scripted for "
                    f"more than one fault"
                )
            claimed |= set(ordinals)
        if self.stall_seconds < 0:
            raise ValueError(
                f"stall_seconds must be non-negative, got "
                f"{self.stall_seconds}"
            )


@dataclass(eq=False)
class _Link:
    """One proxied connection: the client/upstream socket pair.

    ``eq=False`` keeps identity semantics (and hashability) so links
    can live in the proxy's tracking set.
    """

    client: socket.socket
    upstream: socket.socket
    lock: threading.Lock = field(default_factory=threading.Lock)
    dead: bool = False

    def kill(self) -> None:
        """Cut both sides.  Idempotent; safe from any thread."""
        with self.lock:
            if self.dead:
                return
            self.dead = True
        for sock in (self.client, self.upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class FlakyProxy:
    """A scriptable flaky TCP proxy in front of one upstream address.

    >>> # proxy = FlakyProxy(("127.0.0.1", 4000),
    >>> #                    script=ChaosScript(drop_after_requests=(3,)))
    >>> # host, port = proxy.start()   # point FabricWorkers here

    ``start()`` binds an ephemeral listening port and returns it; every
    accepted connection is piped to the upstream with the script
    applied to the client→upstream request stream.  ``stats()`` counts
    what was injected so drills can assert their faults actually
    fired — a chaos test whose chaos silently failed to happen proves
    nothing.
    """

    def __init__(
        self,
        upstream: tuple[str, int],
        *,
        script: ChaosScript | None = None,
    ) -> None:
        self._upstream = upstream
        self._script = script or ChaosScript()
        self._listener: AcceptLoop | None = None
        self._partitioned = threading.Event()
        self._lock = threading.Lock()
        self._links: set[_Link] = set()
        self._requests_seen = 0
        self._stats = {
            "connections": 0,
            "requests_forwarded": 0,
            "drops_injected": 0,
            "tears_injected": 0,
            "stalls_injected": 0,
            "partition_rejects": 0,
            "upstream_failures": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Listen on an ephemeral port; returns ``(host, port)``."""
        if self._listener is not None:
            raise RuntimeError("proxy is already started")
        self._listener = AcceptLoop(
            ("127.0.0.1", 0), self._accept, name="flaky-proxy"
        )
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The proxy's listening address."""
        if self._listener is None:
            raise RuntimeError("proxy is not started")
        return self._listener.address

    def close(self) -> None:
        """Stop listening and cut every live connection.  Idempotent."""
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
        self._kill_links()

    def __enter__(self) -> "FlakyProxy":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- partition control ---------------------------------------------------

    def partition(self) -> None:
        """Full partition: cut live links, refuse new ones until healed."""
        self._partitioned.set()
        self._kill_links()

    def heal(self) -> None:
        """End the partition; new connections flow again."""
        self._partitioned.clear()

    @property
    def partitioned(self) -> bool:
        """Whether the proxy is currently refusing all traffic."""
        return self._partitioned.is_set()

    def stats(self) -> dict:
        """Counts of connections carried, failed upstream connects and
        faults actually injected."""
        with self._lock:
            return dict(self._stats)

    # -- internals -----------------------------------------------------------

    def _kill_links(self) -> None:
        with self._lock:
            links = list(self._links)
        for link in links:
            link.kill()

    def _accept(self, client: socket.socket) -> None:
        if self._partitioned.is_set():
            with self._lock:
                self._stats["partition_rejects"] += 1
            client.close()
            return
        try:
            upstream = socket.create_connection(self._upstream)
        except OSError:
            # The upstream itself is down (e.g. a coordinator
            # mid-restart); to the client that is the same outage.
            with self._lock:
                self._stats["upstream_failures"] += 1
            client.close()
            return
        link = _Link(client=client, upstream=upstream)
        with self._lock:
            self._links.add(link)
            self._stats["connections"] += 1
        threading.Thread(
            target=self._pump_requests, args=(link,), daemon=True
        ).start()
        threading.Thread(
            target=self._pump_responses, args=(link,), daemon=True
        ).start()

    def _next_ordinal(self) -> int:
        with self._lock:
            self._requests_seen += 1
            return self._requests_seen

    def _pump_requests(self, link: _Link) -> None:
        """client → upstream, one newline-framed request at a time."""
        buffer = b""
        try:
            while True:
                data = link.client.recv(65536)
                if not data:
                    break
                buffer += data
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    ordinal = self._next_ordinal()
                    if ordinal in self._script.drop_after_requests:
                        with self._lock:
                            self._stats["drops_injected"] += 1
                        return
                    if ordinal in self._script.tear_after_requests:
                        with self._lock:
                            self._stats["tears_injected"] += 1
                        # A frame cut mid-byte: valid prefix, no
                        # newline, then the wire goes dead.
                        link.upstream.sendall(line[: max(1, len(line) // 2)])
                        return
                    if ordinal in self._script.stall_after_requests:
                        with self._lock:
                            self._stats["stalls_injected"] += 1
                        time.sleep(self._script.stall_seconds)
                    link.upstream.sendall(line + b"\n")
                    with self._lock:
                        self._stats["requests_forwarded"] += 1
        except OSError:
            pass
        finally:
            link.kill()
            with self._lock:
                self._links.discard(link)

    def _pump_responses(self, link: _Link) -> None:
        """upstream → client, raw bytes (responses are never faulted:
        every scripted fault models the *request* path so each fault
        maps to exactly one lost-or-delayed op)."""
        try:
            while True:
                data = link.upstream.recv(65536)
                if not data:
                    break
                link.client.sendall(data)
        except OSError:
            pass
        finally:
            link.kill()
