"""Seeded spot-price market feed driving fleet re-planning.

Real spot pools reprice continuously; a fleet planner that caches DP
tables must notice.  :class:`SpotMarketFeed` emits deterministic price
ticks — a clamped geometric random walk per pool, drawn from the same
crc32 ``(seed, purpose, key)`` stream construction as
:class:`~repro.cloud.faults.FaultInjector` — and reprices the spot
twins in a stage menu to the tick's discount.  The walk path is extended lazily but append-only, so
any query order observes the same prefix and the whole feed replays
byte-for-byte from its seed.

The repricing contract: every ``*.spot`` option's price scales by
``discount(tick) / base_discount`` relative to the menu it was quoted
into (runtimes are untouched — reclaim risk is the executor's job), and
on-demand options never move.  Re-registering the repriced menu with the
:class:`~repro.fleet.planner.FleetPlanner` invalidates exactly the
cached tables whose economics changed.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Sequence, Tuple

from ..cloud.executor import is_spot_vm
from ..core.optimize import ConfigOption, StageOptions

__all__ = ["PriceTick", "SpotMarketFeed"]

#: The single price pool the default feed quotes (all ``*.spot`` twins).
DEFAULT_POOL = "spot"


@dataclass(frozen=True)
class PriceTick:
    """One market tick: the discount of every pool at one instant."""

    index: int
    time_seconds: float
    discounts: Mapping[str, float]

    def discount(self, pool: str = DEFAULT_POOL) -> float:
        return self.discounts[pool]


class SpotMarketFeed:
    """Deterministic per-pool discount walks plus menu repricing.

    Parameters
    ----------
    seed:
        Stream seed; the same seed always yields the same price path.
    base_discount:
        The discount menus were originally quoted at (tick 0's value).
    volatility:
        Per-tick log-normal step scale.  0 freezes the market.
    floor / cap:
        Hard clamp of the walk, as spot markets clamp between "free"
        and on-demand parity.
    tick_interval_seconds:
        Wall time between ticks (stamps :attr:`PriceTick.time_seconds`).
    """

    def __init__(
        self,
        seed: int = 0,
        base_discount: float = 0.3,
        volatility: float = 0.2,
        floor: float = 0.05,
        cap: float = 0.95,
        tick_interval_seconds: float = 300.0,
        pools: Sequence[str] = (DEFAULT_POOL,),
    ):
        if not 0.0 < base_discount <= 1.0:
            raise ValueError("base_discount must be in (0, 1]")
        if volatility < 0:
            raise ValueError("volatility must be non-negative")
        if not 0.0 < floor <= cap:
            raise ValueError("need 0 < floor <= cap")
        if tick_interval_seconds <= 0:
            raise ValueError("tick interval must be positive")
        if not pools:
            raise ValueError("need at least one pool")
        self.seed = seed
        self.base_discount = base_discount
        self.volatility = volatility
        self.floor = floor
        self.cap = cap
        self.tick_interval_seconds = tick_interval_seconds
        self.pools = tuple(pools)
        self._paths: Dict[str, List[float]] = {
            pool: [base_discount] for pool in self.pools
        }
        self._streams: Dict[str, random.Random] = {}

    def _stream(self, pool: str) -> random.Random:
        rng = self._streams.get(pool)
        if rng is None:
            key = f"{self.seed}:spot-walk:{pool}"
            rng = random.Random(zlib.crc32(key.encode()))
            self._streams[pool] = rng
        return rng

    def _extend(self, pool: str, until_tick: int) -> None:
        path = self._paths[pool]
        rng = self._stream(pool)
        while len(path) <= until_tick:
            step = math.exp(self.volatility * rng.gauss(0.0, 1.0))
            path.append(min(self.cap, max(self.floor, path[-1] * step)))

    def discount(self, tick: int, pool: str = DEFAULT_POOL) -> float:
        """The pool's discount at one tick (tick 0 == base_discount)."""
        if tick < 0:
            raise ValueError("tick must be non-negative")
        if pool not in self._paths:
            raise KeyError(f"unknown pool {pool!r}")
        self._extend(pool, tick)
        return self._paths[pool][tick]

    def tick(self, index: int) -> PriceTick:
        """Materialize one tick across every pool."""
        return PriceTick(
            index=index,
            time_seconds=index * self.tick_interval_seconds,
            discounts={
                pool: self.discount(index, pool) for pool in self.pools
            },
        )

    def reprice_stage_options(
        self,
        stages: Sequence[StageOptions],
        tick: int,
        pool: str = DEFAULT_POOL,
    ) -> Tuple[List[StageOptions], float]:
        """Reprice a menu's spot twins to one tick's discount.

        Returns ``(new_stages, discount)``.  ``stages`` must be the
        originally-quoted menu (repricing is always relative to
        ``base_discount``, never compounded).  Tick 0 returns menus
        priced identically to the input.
        """
        discount = self.discount(tick, pool)
        factor = discount / self.base_discount
        out: List[StageOptions] = []
        for stage_opts in stages:
            options: List[ConfigOption] = []
            changed = False
            for opt in stage_opts.options:
                if not is_spot_vm(opt.vm):
                    options.append(opt)
                    continue
                changed = True
                options.append(
                    ConfigOption(
                        vm=replace(
                            opt.vm,
                            price_per_hour=opt.vm.price_per_hour * factor,
                        ),
                        runtime_seconds=opt.runtime_seconds,
                        price=opt.price * factor,
                    )
                )
            out.append(
                StageOptions(stage=stage_opts.stage, options=options)
                if changed
                else stage_opts
            )
        return out, discount
