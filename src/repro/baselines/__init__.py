"""Non-evolutionary baseline allocators.

* :class:`RoundRobinAllocator` — the paper's Round Robin baseline,
  after Mahajan et al.'s "Round Robin with Server Affinity": a rotating
  server pointer, with request resources sorted so affinity groups are
  placed together.
* :class:`FirstFitAllocator`, :class:`BestFitAllocator`,
  :class:`WorstFitAllocator`, :class:`RandomAllocator` — classical
  greedy packing heuristics, included as extra reference points (the
  bin-packing family the paper's related work positions against).

All greedy allocators process requests in arrival order, respect
capacity and the request's own affinity rules, and *reject* (leave
unplaced) any request they cannot satisfy — they never emit violating
placements, which is exactly how they behave in Figures 9-10.
"""

from repro.baselines.greedy_base import GreedyAllocator
from repro.baselines.round_robin import RoundRobinAllocator
from repro.baselines.fits import (
    BestFitAllocator,
    FirstFitAllocator,
    RandomAllocator,
    WorstFitAllocator,
)
from repro.baselines.filter_scheduler import FilterSchedulerAllocator

__all__ = [
    "GreedyAllocator",
    "RoundRobinAllocator",
    "FirstFitAllocator",
    "BestFitAllocator",
    "WorstFitAllocator",
    "RandomAllocator",
    "FilterSchedulerAllocator",
]
