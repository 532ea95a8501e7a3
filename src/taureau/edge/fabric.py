"""Edge/fog serverless execution (paper §1, [84, 105, 128, 164, 178]).

The paper notes "the serverless paradigm is being extended to
networking and the edge" and cites fog functions for IoT [83], edge
execution models [105], and named/serverless network functions
[128, 164].  The fabric here models that topology:

- a *core* cloud region: an elastic FaaS platform far away (WAN RTT,
  limited uplink bandwidth);
- *edge sites*: small capacity-constrained FaaS platforms one hop from
  the devices.

A placement policy decides, per event, whether to execute at the edge
(cheap network, scarce compute) or offload to the core (expensive
network, elastic compute).  The crossover between the two as load grows
is experiment E31.
"""

from __future__ import annotations

import dataclasses
import typing

from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform
from taureau.sim import Event, MetricRegistry, Simulation

__all__ = [
    "EdgeSite",
    "EdgeRequest",
    "PlacementPolicy",
    "CloudOnlyPolicy",
    "EdgeOnlyPolicy",
    "EdgeFirstPolicy",
    "EdgeFabric",
]


class EdgeSite:
    """One capacity-constrained point of presence near the devices."""

    def __init__(
        self,
        platform: FaasPlatform,
        uplink_rtt_s: float = 0.040,
        uplink_mb_s: float = 25.0,
        local_rtt_s: float = 0.002,
        name: typing.Optional[str] = None,
    ):
        if uplink_rtt_s < 0 or uplink_mb_s <= 0 or local_rtt_s < 0:
            raise ValueError("invalid edge-site network parameters")
        self.name = name or f"edge{next(platform.sim.ids('edge'))}"
        self.platform = platform
        self.uplink_rtt_s = uplink_rtt_s
        self.uplink_mb_s = uplink_mb_s
        self.local_rtt_s = local_rtt_s

    def uplink_transfer_s(self, size_mb: float) -> float:
        """One-way WAN cost for ``size_mb`` of payload."""
        return self.uplink_rtt_s / 2.0 + size_mb / self.uplink_mb_s


@dataclasses.dataclass
class EdgeRequest:
    """The outcome of one device event through the fabric."""

    site: str
    placement: str  # "edge" or "cloud"
    arrival_time: float
    finish_time: float = 0.0
    record: object = None

    @property
    def latency_s(self) -> float:
        return self.finish_time - self.arrival_time


class PlacementPolicy:
    """Decides where an event executes."""

    def place(self, site: EdgeSite, fabric: "EdgeFabric") -> str:
        raise NotImplementedError


class CloudOnlyPolicy(PlacementPolicy):
    """Everything offloads to the core (the pre-edge status quo)."""

    def place(self, site, fabric):
        return "cloud"


class EdgeOnlyPolicy(PlacementPolicy):
    """Everything runs at the site, queueing be damned."""

    def place(self, site, fabric):
        return "edge"


class EdgeFirstPolicy(PlacementPolicy):
    """Run at the edge while it has headroom; offload the overflow.

    ``max_edge_inflight`` caps in-flight executions per site — the
    "fog function" dispatch rule of [83]/[105]: keep latency-critical
    work local until the scarce edge box saturates.
    """

    def __init__(self, max_edge_inflight: int = 8):
        if max_edge_inflight <= 0:
            raise ValueError("max_edge_inflight must be positive")
        self.max_edge_inflight = max_edge_inflight

    def place(self, site, fabric):
        if fabric.edge_inflight(site.name) < self.max_edge_inflight:
            return "edge"
        return "cloud"


class EdgeFabric:
    """Routes device events across edge sites and the core cloud."""

    def __init__(self, sim: Simulation, core: FaasPlatform,
                 sites: typing.Sequence[EdgeSite]):
        if not sites:
            raise ValueError("the fabric needs at least one edge site")
        self.sim = sim
        self.core = core
        self.sites = {site.name: site for site in sites}
        self.metrics = MetricRegistry()
        self._edge_inflight: dict = {site.name: 0 for site in sites}

    def edge_inflight(self, site_name: str) -> int:
        """Requests currently routed to (and not yet done at) a site."""
        return self._edge_inflight[site_name]

    def deploy(self, spec: FunctionSpec) -> None:
        """Register the function everywhere (core + every site)."""
        self.core.register(spec)
        for site in self.sites.values():
            site.platform.register(spec)

    def submit(
        self,
        site_name: str,
        function_name: str,
        payload: object,
        payload_mb: float,
        policy: PlacementPolicy,
    ) -> Event:
        """Route one device event; fires with an :class:`EdgeRequest`."""
        site = self.sites[site_name]
        placement = policy.place(site, self)
        request = EdgeRequest(
            site=site_name, placement=placement, arrival_time=self.sim.now
        )
        done = self.sim.event()
        self.metrics.counter(f"placed.{placement}").add()
        if placement == "edge":
            self._edge_inflight[site.name] += 1
            network_delay = site.local_rtt_s
            platform = site.platform
        else:
            network_delay = site.uplink_transfer_s(payload_mb)
            platform = self.core
        self.sim.schedule_after(
            network_delay, self._execute, platform, function_name, payload,
            site, placement, request, done,
        )
        return done

    def _execute(self, platform, function_name, payload, site, placement,
                 request, done):
        invocation = platform.invoke(function_name, payload)

        def finish(event):
            request.record = event.value
            # The response rides the same network path back.
            return_delay = (
                site.local_rtt_s
                if placement == "edge"
                else site.uplink_rtt_s / 2.0
            )
            self.sim.schedule_after(return_delay, self._complete, request, done)

        invocation.add_callback(finish)

    def _complete(self, request: EdgeRequest, done: Event) -> None:
        request.finish_time = self.sim.now
        if request.placement == "edge":
            self._edge_inflight[request.site] -= 1
        self.metrics.distribution(f"latency.{request.placement}").observe(
            request.latency_s
        )
        done.succeed(request)
