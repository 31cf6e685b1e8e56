"""Process-driven fabric engine and disk operation: the oracle for the
bit-identity tests.

A replica of :class:`repro.netsim.Fabric`'s completion engine and of
:class:`repro.disksim.DiskArray`'s operation as they ran when both were
kernel :class:`~repro.sim.Process` es:

* the engine is one process per busy period, started when an idle fabric
  gains a flow and woken through a fresh :class:`~repro.sim.Event` per
  cycle (by a kick, or by a timer that triggers the event);
* banking keeps a per-flow last-update time and runs after the new flow
  joins ``_flows``;
* a transfer looks its route up and sums its latency on every call;
* every disk operation is its own process holding a queue slot.

The production classes run the same steps as chains of pooled kernel
calls; ``tests/test_engine_oracle.py`` requires both to produce exactly
equal results, byte counts, solve counts and completion order.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.disksim import DiskArray
from repro.disksim.array import DiskOpResult
from repro.netsim.fabric import EPS_BYTES, Fabric, Flow, TransferResult
from repro.sim import Environment, Event

__all__ = ["ProcessDiskArray", "ProcessFabric"]


class ProcessFabric(Fabric):
    """:class:`Fabric` whose completion engine is a kernel process."""

    def __init__(self, env: Environment, name: str = "fabric") -> None:
        super().__init__(env, name)
        self._completion_proc_running = False
        self._wakeup: Optional[Event] = None
        #: fid -> simulated time the flow was last banked
        self._last_update: dict[int, float] = {}

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        rate_cap: float = float("inf"),
        weight: float = 1.0,
        tag: Any = None,
    ) -> Event:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        done = self.env.event()
        links = self.route(src, dst)
        latency = sum(lk.latency for lk in links)
        start = self.env.now

        if nbytes == 0 or (not links and rate_cap == float("inf")):
            def _finish_quick() -> None:
                done.succeed(
                    TransferResult(src, dst, int(nbytes), start, self.env.now, tag)
                )
                self.bytes_delivered += nbytes

            self.env.call_later(latency, _finish_quick)
            return done

        flow = Flow(
            next(self._fid), src, dst, links, nbytes, done,
            rate_cap=rate_cap, weight=weight, tag=tag, start=start,
        )

        def _register() -> None:
            now = self.env.now
            flow.start = now
            self._last_update[flow.fid] = now
            self._flows[flow.fid] = flow
            rate = self._alloc.add_flow(
                flow.fid,
                [lk.name for lk in links],
                weight=flow.weight,
                rate_cap=flow.rate_cap,
            )
            if rate is not None:
                flow._rate = rate
            self._bank_progress()
            fin = self._finished
            if flow._remaining <= EPS_BYTES and not (fin and fin[-1] is flow):
                fin.append(flow)
            self._retire_finished()
            self._kick_engine()

        self.env.call_later(latency, _register)
        return done

    def _bank_progress(self) -> None:
        now = self.env.now
        if now == self._last_bank:
            return
        self._last_bank = now
        inf = float("inf")
        delivered = 0.0
        finished = self._finished
        last_update = self._last_update
        for flow in self._flows.values():
            rate = flow._rate
            dt = now - last_update[flow.fid]
            if rate == inf:
                delivered += flow._remaining
                flow._remaining = 0.0
                finished.append(flow)
            elif dt > 0 and rate > 0:
                rem = flow._remaining
                moved = rate * dt
                if moved > rem:
                    moved = rem
                rem -= moved
                delivered += moved
                if rem <= EPS_BYTES:
                    delivered += rem
                    rem = 0.0
                    finished.append(flow)
                flow._remaining = rem
            last_update[flow.fid] = now
        self.bytes_delivered += delivered

    def _kick_engine(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed(None)
        elif not self._completion_proc_running and self._flows:
            self._completion_proc_running = True
            self.env.process(self._engine(), name=f"{self.name}-engine")

    def _engine(self) -> Iterable[Event]:
        try:
            while self._flows:
                dt = self._next_completion()
                if dt == float("inf"):
                    self._wakeup = self.env.event()
                    yield self._wakeup
                    self._wakeup = None
                    continue
                if self.env.now + dt == self.env.now:
                    self._drain_subresolution(dt)
                    continue
                self._wakeup = wake = self.env.event()
                self.env.call_later(
                    dt, lambda wake=wake: None if wake.triggered else wake.succeed(None)
                )
                yield wake
                self._wakeup = None
                self._bank_progress()
                self._retire_finished()
        finally:
            self._completion_proc_running = False


class ProcessDiskArray(DiskArray):
    """:class:`DiskArray` whose operations are kernel processes, over a
    :class:`ProcessFabric`."""

    def __init__(self, env: Environment, name: str, *args: Any, **kw: Any) -> None:
        super().__init__(env, name, *args, **kw)
        self._fab = ProcessFabric(env, name=f"{name}-internal")
        self._fab.add_link("host", "media", capacity=self.bandwidth,
                           latency=0.0, duplex=True)

    def _io(self, op: str, nbytes: float, tag: Any) -> Event:
        done = self.env.event()
        submitted = self.env.now

        def _proc() -> Iterable[Event]:
            with self._slots.request() as slot:
                yield slot
                start = self.env.now
                if self.seek_time > 0:
                    yield self.env.timeout(self.seek_time)
                if nbytes > 0:
                    src, dst = ("media", "host") if op == "read" else ("host", "media")
                    yield self._fab.transfer(src, dst, nbytes)
                end = self.env.now
            if op == "read":
                self.reads += 1
                self.bytes_read += nbytes
            else:
                self.writes += 1
                self.bytes_written += nbytes
            done.succeed(
                DiskOpResult(op, int(nbytes), start, end, start - submitted, tag)
            )

        self.env.process(_proc(), name=f"{self.name}-{op}")
        return done
