"""Deterministic, seed-driven network-fault injection: the chaos proxy.

The storage stack proves its resilience against a declarative
:class:`~repro.storage.faults.FaultPlan`; this module is the same idea
for the network edge.  A :class:`ChaosProxy` sits between client and
server, forwarding bytes in both directions while consulting a
:class:`NetFaultPlan` on every accepted connection and every relayed
chunk:

* **accept refusals** — the connection is accepted and immediately
  hard-closed (RST), as an overloaded or crashing server would;
* **connection resets** — mid-stream hard close of both sides;
* **latency** — a fixed delay before forwarding a chunk;
* **partial writes** — a chunk is dribbled out in small pieces with
  pauses, exercising every reader's short-read path;
* **mid-line truncation** — a *prefix* of a chunk is forwarded, then
  both sides are reset, leaving a torn protocol line in flight (the
  network version of a torn page write).

Plans parse from the same compact ``key=value`` string form as disk
fault plans, and install from the ``REPRO_NET_FAULT_PLAN`` environment
variable so CI can run the entire service suite through a *transparent*
proxy (``none``) to prove the proxy itself changes nothing.

Faults are rolled from one seeded ``random.Random``.  Thread
interleaving means the exact placement of faults across concurrent
connections can vary, but the *rate and mix* per seed do not, and a
single-connection scenario replays exactly.
"""

from __future__ import annotations

import dataclasses
import os
import random
import socket
import struct
import threading
import time
from dataclasses import dataclass

from ..errors import ServiceError

#: Environment variable holding a parseable net-fault plan; when set,
#: the service test fixtures route every connection through a proxy.
NET_FAULT_PLAN_ENV = "REPRO_NET_FAULT_PLAN"

_CHUNK = 65536


@dataclass(frozen=True)
class NetFaultPlan:
    """Declarative description of the network faults to inject.

    Rates are per-event probabilities in ``[0, 1]``: ``refuse_rate``
    per accepted connection, the rest per relayed chunk.
    ``max_faults`` bounds the total injected so a retrying client
    eventually wins.
    """

    seed: int = 0
    refuse_rate: float = 0.0  # accept, then immediately reset
    reset_rate: float = 0.0  # hard-close mid-stream
    delay_rate: float = 0.0  # hold a chunk for delay_seconds
    delay_seconds: float = 0.01
    partial_write_rate: float = 0.0  # dribble a chunk byte-group-wise
    truncate_rate: float = 0.0  # forward a prefix, then reset
    stall_rate: float = 0.0  # hold a chunk for stall_seconds (alive but dark)
    stall_seconds: float = 1.0
    kill_after: int | None = None  # after N connections: go dark until heal
    max_faults: int | None = None

    def is_noop(self) -> bool:
        """True when the plan injects nothing (transparent proxy)."""
        return (
            self.refuse_rate == 0.0
            and self.reset_rate == 0.0
            and self.delay_rate == 0.0
            and self.partial_write_rate == 0.0
            and self.truncate_rate == 0.0
            and self.stall_rate == 0.0
            and self.kill_after is None
        )

    @classmethod
    def parse(cls, text: str) -> "NetFaultPlan":
        """Parse ``"seed=7,reset_rate=0.05,delay_rate=0.1"``.

        ``"none"`` (or an empty string) yields the no-fault plan —
        the proxy is installed but transparent.
        """
        text = text.strip()
        if text in ("", "none", "off"):
            return cls()
        fields = {field.name: field for field in dataclasses.fields(cls)}
        values: dict[str, object] = {}
        for part in text.replace(";", ",").split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ServiceError(
                    f"net fault plan: expected key=value, got {part!r}"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in fields:
                known = ", ".join(sorted(fields))
                raise ServiceError(
                    f"net fault plan: unknown key {key!r} (known: {known})"
                )
            if key == "seed":
                values[key] = int(raw)
            elif key in ("max_faults", "kill_after"):
                values[key] = None if raw.lower() == "none" else int(raw)
            else:
                values[key] = float(raw)
        return cls(**values)  # type: ignore[arg-type]

    def describe(self) -> str:
        """The plan back in its parseable string form."""
        parts = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value != field.default:
                parts.append(f"{field.name}={value}")
        return ",".join(parts) if parts else "none"


#: The transparent plan (proxy installed, nothing injected).
NO_NET_FAULTS = NetFaultPlan()


def net_plan_from_env() -> NetFaultPlan | None:
    """The plan named by ``REPRO_NET_FAULT_PLAN``, or ``None`` if
    unset."""
    text = os.environ.get(NET_FAULT_PLAN_ENV)
    if text is None:
        return None
    return NetFaultPlan.parse(text)


class NetFaultStatistics:
    """Counters for every network fault actually injected."""

    __slots__ = (
        "refused_connections",
        "resets",
        "delays",
        "partial_writes",
        "truncations",
        "stalls",
        "kills",
        "connections_proxied",
        "_lock",
    )

    def __init__(self):
        for name in self.__slots__[:-1]:
            setattr(self, name, 0)
        self._lock = threading.Lock()

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def total_faults(self) -> int:
        with self._lock:
            return (
                self.refused_connections
                + self.resets
                + self.delays
                + self.partial_writes
                + self.truncations
                + self.stalls
                + self.kills
            )

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                f"net_{name}": getattr(self, name)
                for name in self.__slots__[:-1]
            }


def _hard_close(sock: socket.socket) -> None:
    """Close with RST (SO_LINGER 0): the peer sees a connection reset,
    not an orderly EOF.  ``SHUT_RD`` first wakes a pump blocked in
    ``recv()`` on this socket — ``close()`` alone would not, and the
    socket (hence the reset) would stay alive until data arrived."""
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.shutdown(socket.SHUT_RD)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _Pipe:
    """One proxied connection: two sockets, closed together once."""

    def __init__(self, client: socket.socket, upstream: socket.socket):
        self.client = client
        self.upstream = upstream
        self._lock = threading.Lock()
        self._open_directions = 2
        self._dead = False

    @property
    def dead(self) -> bool:
        with self._lock:
            return self._dead

    def kill(self) -> None:
        """Reset both sides (fault injection or proxy shutdown)."""
        with self._lock:
            if self._dead:
                return
            self._dead = True
        _hard_close(self.client)
        _hard_close(self.upstream)

    def finished_direction(self) -> None:
        with self._lock:
            self._open_directions -= 1
            last = self._open_directions == 0
            if not last or self._dead:
                return
            self._dead = True
        for sock in (self.client, self.upstream):
            try:
                sock.close()
            except OSError:
                pass


class ChaosProxy:
    """A TCP forwarder that injects faults per a :class:`NetFaultPlan`.

    ``heal()`` swaps in the transparent plan — injected chaos stops,
    existing and new connections flow cleanly, and a client's circuit
    breaker can re-close (the soak harness asserts exactly that).
    """

    def __init__(
        self,
        upstream: tuple[str, int],
        plan: NetFaultPlan = NO_NET_FAULTS,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.upstream = upstream
        self._plan = plan
        self._rng = random.Random(plan.seed)
        self._roll_lock = threading.Lock()
        self.fault_counters = NetFaultStatistics()
        self._listener = socket.create_server((host, port))
        self._closed = False
        self._pipes: set[_Pipe] = set()
        self._pipes_lock = threading.Lock()
        self._accept_thread: threading.Thread | None = None
        # Per-plan state: every set_plan() bumps the epoch (so fault
        # decisions made against a stale plan are discarded at apply
        # time), re-baselines the fault budget (so a fresh plan's
        # max_faults is not pre-spent by an earlier storm), and resets
        # the kill latch.
        self._plan_lock = threading.Lock()
        self._epoch = 0
        self._fault_baseline = 0
        self._conns_since_plan = 0
        self._kill_latched = False

    # ------------------------------------------------------------------
    # Plan control
    # ------------------------------------------------------------------
    @property
    def plan(self) -> NetFaultPlan:
        return self._plan

    @property
    def killed(self) -> bool:
        """True while the ``kill_after`` latch holds the proxy dark."""
        return self._kill_latched

    def set_plan(self, plan: NetFaultPlan) -> None:
        """Swap the active plan (the rng keeps its stream: healing and
        re-arming mid-run stays on the same seed schedule).

        Installing a plan starts a fresh fault epoch: in-flight fault
        decisions rolled under the old plan are abandoned, the
        ``max_faults`` budget counts from zero again, and a tripped
        ``kill_after`` latch is released.
        """
        with self._plan_lock:
            self._plan = plan
            self._epoch += 1
            self._fault_baseline = self.fault_counters.total_faults()
            self._conns_since_plan = 0
            self._kill_latched = False
            epoch = self._epoch
        # A plan that allows zero further connections goes dark NOW:
        # existing pipes die too, not just future accepts.
        if plan.kill_after == 0:
            self._maybe_kill(plan, epoch)

    def heal(self) -> None:
        """Stop injecting faults; existing connections keep flowing,
        a kill latch releases, and no stale budget or in-flight fault
        decision from the previous plan can fire afterwards."""
        self.set_plan(NO_NET_FAULTS)

    def _roll(self, plan: NetFaultPlan, epoch: int, rate: float) -> bool:
        if rate <= 0.0 or self._closed:
            return False
        if epoch != self._epoch:
            return False  # stale plan: a heal/swap already superseded it
        limit = plan.max_faults
        if limit is not None:
            spent = self.fault_counters.total_faults() - self._fault_baseline
            if spent >= limit:
                return False
        with self._roll_lock:
            if epoch != self._epoch:
                return False
            return self._rng.random() < rate

    def _interruptible_sleep(self, seconds: float, epoch: int, pipe: "_Pipe | None") -> None:
        """Sleep in slices, waking early when the plan changes, the
        pipe dies, or the proxy closes — a heal() must not leave a
        stalled chunk dark for the stale plan's full duration."""
        deadline = time.monotonic() + seconds
        while not self._closed and epoch == self._epoch:
            if pipe is not None and pipe.dead:
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(remaining, 0.02))

    def _rand_cut(self, length: int) -> int:
        with self._roll_lock:
            return self._rng.randrange(1, length) if length > 1 else 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ChaosProxy":
        thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        thread.start()
        self._accept_thread = thread
        return self

    @property
    def endpoint(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            # shutdown() first: close() alone leaves the kernel listen
            # alive while the accept loop is blocked in accept(), so
            # new connections would still be admitted.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._pipes_lock:
            pipes = list(self._pipes)
        for pipe in pipes:
            pipe.kill()

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _maybe_kill(self, plan: NetFaultPlan, epoch: int) -> bool:
        """Check (and possibly trip) the ``kill_after`` latch; while
        latched, the proxy is dark — every new connection is refused
        and existing pipes are already dead."""
        with self._plan_lock:
            if epoch != self._epoch:
                return self._kill_latched
            if self._kill_latched:
                return True
            if plan.kill_after is None or self._conns_since_plan < plan.kill_after:
                return False
            self._kill_latched = True
        self.fault_counters.add("kills")
        with self._pipes_lock:
            pipes = list(self._pipes)
        for pipe in pipes:
            pipe.kill()
        return True

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            plan = self._plan
            epoch = self._epoch
            if self._maybe_kill(plan, epoch):
                _hard_close(client)
                continue
            if self._roll(plan, epoch, plan.refuse_rate):
                self.fault_counters.add("refused_connections")
                _hard_close(client)
                continue
            try:
                upstream = socket.create_connection(self.upstream, timeout=10.0)
            except OSError:
                _hard_close(client)
                continue
            # The timeout bounds the connect only: a pump blocks in
            # recv() for as long as the connection idles.
            upstream.settimeout(None)
            self.fault_counters.add("connections_proxied")
            with self._plan_lock:
                if epoch == self._epoch:
                    self._conns_since_plan += 1
            pipe = _Pipe(client, upstream)
            with self._pipes_lock:
                self._pipes.add(pipe)
            for src, dst in ((client, upstream), (upstream, client)):
                threading.Thread(
                    target=self._pump,
                    args=(pipe, src, dst),
                    name="chaos-proxy-pump",
                    daemon=True,
                ).start()

    def _pump(self, pipe: _Pipe, src: socket.socket, dst: socket.socket) -> None:
        try:
            while True:
                try:
                    chunk = src.recv(_CHUNK)
                except OSError:
                    # A dead direction must not leave the other one
                    # forwarding requests whose replies nobody relays.
                    pipe.kill()
                    return
                if not chunk:
                    # Orderly half-close: let the other direction live.
                    try:
                        dst.shutdown(socket.SHUT_WR)
                    except OSError:
                        pass
                    return
                plan = self._plan
                epoch = self._epoch
                if self._roll(plan, epoch, plan.reset_rate):
                    self.fault_counters.add("resets")
                    pipe.kill()
                    return
                if self._roll(plan, epoch, plan.truncate_rate):
                    self.fault_counters.add("truncations")
                    cut = self._rand_cut(len(chunk))
                    try:
                        dst.sendall(chunk[:cut])
                    except OSError:
                        pass
                    pipe.kill()
                    return
                if self._roll(plan, epoch, plan.stall_rate):
                    self.fault_counters.add("stalls")
                    self._interruptible_sleep(plan.stall_seconds, epoch, pipe)
                    if pipe.dead:
                        return
                if self._roll(plan, epoch, plan.delay_rate):
                    self.fault_counters.add("delays")
                    self._interruptible_sleep(plan.delay_seconds, epoch, pipe)
                    if pipe.dead:
                        return
                try:
                    if self._roll(plan, epoch, plan.partial_write_rate):
                        self.fault_counters.add("partial_writes")
                        for start in range(0, len(chunk), 3):
                            dst.sendall(chunk[start : start + 3])
                            time.sleep(0.001)
                    else:
                        dst.sendall(chunk)
                except OSError:
                    return
        finally:
            pipe.finished_direction()
            if pipe._open_directions == 0:
                with self._pipes_lock:
                    self._pipes.discard(pipe)
