"""Churn: the disconnected-operation patterns the paper motivates.

Section 1: *"the clients in our model are not simultaneously present and
may be disconnected temporarily"* — the reason eventual (stability-based)
consistency is the right notion for this setting.  :class:`ChurnSchedule`
drives FAUST clients through random offline windows: while offline a
client pauses its background machinery and the offline channel buffers
its mail; on return everything resumes.

The storage-engine work adds *server-side* churn: crash-recovery windows
during which the server is down and then recovers from its storage
engine (:meth:`ChurnSchedule.add_server_outage`).  With a durable engine
both kinds of churn obey the same contract: invisible to failure
detection (a recovering server is not a Byzantine one, a sleeping client
is not a faulty server) and only *delaying* stability — properties the
churn tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.types import ClientId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.system import System


@dataclass(frozen=True)
class OfflineWindow:
    """One planned disconnection."""

    client: ClientId
    start: float
    duration: float

    @property
    def end(self) -> float:
        """When the client comes back online."""
        return self.start + self.duration


@dataclass(frozen=True)
class ServerOutageWindow:
    """One planned server crash-recovery cycle.

    ``shard`` targets one shard's server on a cluster deployment; ``None``
    means *the* server (single-server systems) or *every* server (a
    correlated, whole-cluster outage).
    """

    start: float
    duration: float
    shard: int | None = None

    @property
    def end(self) -> float:
        """When the server recovers."""
        return self.start + self.duration


class ChurnSchedule:
    """Applies offline windows to a FAUST deployment."""

    def __init__(self, system: System) -> None:
        self._system = system
        self.windows: list[OfflineWindow] = []
        self.server_outages: list[ServerOutageWindow] = []

    def add_window(self, client: ClientId, start: float, duration: float) -> None:
        """Schedule one offline window for ``client``."""
        if duration <= 0:
            raise ValueError("offline windows need positive duration")
        window = OfflineWindow(client=client, start=start, duration=duration)
        self.windows.append(window)
        self._system.scheduler.schedule_at(window.start, self._go_offline, window)
        self._system.scheduler.schedule_at(window.end, self._come_back, window)

    def random_windows(
        self,
        count: int,
        horizon: float,
        mean_duration: float,
        exclude: set[ClientId] | None = None,
    ) -> None:
        """Draw ``count`` random windows over ``[0, horizon]``."""
        rng = self._system.scheduler.rng
        exclude = exclude or set()
        eligible = [
            c.client_id for c in self._system.clients if c.client_id not in exclude
        ]
        for _ in range(count):
            client = rng.choice(eligible)
            start = rng.uniform(0.0, horizon)
            duration = max(rng.expovariate(1.0 / mean_duration), 1.0)
            self.add_window(client, start, duration)

    # ------------------------------------------------------------------ #
    # Server-side churn (crash-recovery windows)
    # ------------------------------------------------------------------ #

    def add_server_outage(
        self, start: float, duration: float, shard: int | None = None
    ) -> None:
        """Schedule one server crash-recovery window.

        The server crashes at ``start`` and recovers from its storage
        engine at ``start + duration``; requests delivered in between are
        held by the reliable channels and served after recovery.  With a
        durable engine this is client-churn's server-side mirror: delayed
        operations, no failure notifications.  Windows targeting the same
        server must not overlap — an overlapping restart would cut the
        longer outage short.

        On a cluster deployment, ``shard`` crashes one shard's server
        only (the others keep serving); ``None`` takes the whole cluster
        down.
        """
        if duration <= 0:
            raise ValueError("server outage windows need positive duration")
        if shard is not None and not hasattr(self._system, "shard_outage"):
            raise ValueError(
                "shard-targeted outages need a cluster deployment"
            )
        window = ServerOutageWindow(start=start, duration=duration, shard=shard)
        if any(self._overlaps(window, existing) for existing in self.server_outages):
            raise ValueError("server outage windows must not overlap")
        self.server_outages.append(window)
        if shard is None:
            self._system.server_outage(start, duration)
        else:
            self._system.shard_outage(shard, start, duration)

    def random_server_outages(
        self, count: int, horizon: float, mean_duration: float
    ) -> None:
        """Draw up to ``count`` random, non-overlapping windows over
        ``[0, horizon]`` (overlapping draws are skipped)."""
        self._random_outages(count, horizon, mean_duration, lambda rng: None)

    def random_shard_outages(
        self, count: int, horizon: float, mean_duration: float
    ) -> None:
        """Cluster churn: draw up to ``count`` random windows, each
        hitting one random shard (overlapping same-target draws are
        skipped)."""
        if not hasattr(self._system, "shard_outage"):
            raise ValueError("shard-targeted outages need a cluster deployment")
        num_shards = self._system.num_shards
        self._random_outages(
            count, horizon, mean_duration, lambda rng: rng.randrange(num_shards)
        )

    def _random_outages(
        self, count: int, horizon: float, mean_duration: float, draw_shard
    ) -> None:
        rng = self._system.scheduler.rng
        for _ in range(count):
            shard = draw_shard(rng)
            start = rng.uniform(0.0, horizon)
            duration = max(rng.expovariate(1.0 / mean_duration), 1.0)
            candidate = ServerOutageWindow(
                start=start, duration=duration, shard=shard
            )
            if any(self._overlaps(candidate, w) for w in self.server_outages):
                continue
            self.add_server_outage(start, duration, shard=shard)

    @staticmethod
    def _overlaps(a: ServerOutageWindow, b: ServerOutageWindow) -> bool:
        """Windows conflict when they share a server and share time:
        ``shard=None`` (the whole deployment) conflicts with everything."""
        same_target = (
            a.shard is None or b.shard is None or a.shard == b.shard
        )
        return same_target and a.start < b.end and b.start < a.end

    # ------------------------------------------------------------------ #

    def _go_offline(self, window: OfflineWindow) -> None:
        client = self._system.clients[window.client]
        if client.crashed or getattr(client, "faust_failed", False):
            return
        client.pause()
        self._system.offline.set_online(client.name, False)
        self._system.trace.note(
            self._system.now, client.name, "offline", window.duration
        )

    def _come_back(self, window: OfflineWindow) -> None:
        client = self._system.clients[window.client]
        if client.crashed or getattr(client, "faust_failed", False):
            return
        self._system.offline.set_online(client.name, True)
        client.resume()
        self._system.trace.note(self._system.now, client.name, "online")
