"""Search-strategy portfolio over the exploration engine.

``ExplorerConfig.strategy`` selects either one of the paper-faithful
greedy sweeps (``full`` / ``lazy``, implemented directly in
:mod:`repro.core.explorer`) or one of the stochastic searchers here —
all of which run in the explorer's one loop, score through the engine's
``scan_errors`` call, and share the byte-identical replay discipline
(seeded RNG, checkpointed searcher state; see
:mod:`repro.core.search.base`).
"""

from __future__ import annotations

from ...errors import ExplorationError
from .anneal import AnnealSearcher
from .base import Searcher
from .ranker import RankerSearcher

#: Stochastic strategies provided by this package, in registry order.
SEARCHER_STRATEGIES = ("anneal", "ranker")

_REGISTRY = {
    AnnealSearcher.strategy: AnnealSearcher,
    RankerSearcher.strategy: RankerSearcher,
}


def make_searcher(config, profiles, rng) -> Searcher:
    """Instantiate the searcher named by ``config.strategy``.

    ``rng`` must be the run's single seeded generator (threaded from
    ``ExplorerConfig.seed`` by :func:`repro.core.explorer.explore`) —
    searchers own no randomness of their own.
    """
    try:
        cls = _REGISTRY[config.strategy]
    except KeyError:
        raise ExplorationError(
            f"no searcher for strategy {config.strategy!r}; "
            f"expected one of {SEARCHER_STRATEGIES}"
        ) from None
    return cls(config, profiles, rng)


__all__ = [
    "AnnealSearcher",
    "RankerSearcher",
    "SEARCHER_STRATEGIES",
    "Searcher",
    "make_searcher",
]
