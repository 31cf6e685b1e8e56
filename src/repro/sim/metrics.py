"""The Environment's metrics registry: named views over live counters.

Components already count what operators watch (drive mounts, bytes to
tape, files migrated and recalled, index queries) in plain attributes.
Each :class:`repro.sim.Environment` owns one :class:`MetricsRegistry`
(``env.metrics``) in which a component registers a zero-argument
*view* per counter, under a ``<layer>.<noun>[_unit]`` name::

    env.metrics.add("tapesim.mounts", lambda: self.total_mounts)

Nothing is counted twice and nothing depends on tracing: the registry
holds no values, only the views, and :meth:`MetricsRegistry.snapshot`
reads them.  Several instances may register the same name (both file
systems, every disk array); a snapshot reports the sum, so register
additive totals only.

Determinism contract: snapshots list names in first-registration order,
so two identical runs serialize to identical bytes.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Named views; a snapshot sums each name's views."""

    __slots__ = ("_views",)

    def __init__(self) -> None:
        self._views: dict[str, list[Callable[[], float]]] = {}

    def add(self, name: str, view: Callable[[], float]) -> None:
        """Register *view* (called at snapshot time) under *name*."""
        self._views.setdefault(name, []).append(view)

    def snapshot(self) -> dict:
        """{name: sum of its views} in first-registration order."""
        return {
            name: sum(view() for view in views)
            for name, views in self._views.items()
        }
