"""Branch predictors for the FG-core pipeline model.

The paper's fine-grained cores keep a small YAGS predictor (a choice
PHT plus tagged taken/not-taken exception caches) — big enough to learn
the biased branches of the physics kernels, small enough to stay cheap.
The shader-style design point drops prediction entirely (static
not-taken), and the "limit" design point never mispredicts (the
pipeline model skips prediction for it, so it has no predictor here).
"""

from __future__ import annotations

__all__ = [
    "YagsPredictor",
    "StaticPredictor",
    "make_predictor",
]


def _update_counter(value: int, taken: bool) -> int:
    if taken:
        return min(3, value + 1)
    return max(0, value - 1)


#: YAGS table widths (bits): choice table, exception caches, tags and
#: global history.
CHOICE_BITS = 10
CACHE_BITS = 8
TAG_BITS = 6
HISTORY_BITS = 8


class YagsPredictor:
    """YAGS (Eden & Mudge): bimodal choice table with per-direction
    exception caches indexed by pc ^ global-history."""

    def __init__(self):
        self.choice = [2] * (1 << CHOICE_BITS)
        self.choice_mask = (1 << CHOICE_BITS) - 1
        self.cache_mask = (1 << CACHE_BITS) - 1
        self.tag_mask = (1 << TAG_BITS) - 1
        self.history_mask = (1 << HISTORY_BITS) - 1
        # Exception caches: index -> (tag, 2-bit counter).
        self.t_cache = {}
        self.nt_cache = {}
        self.history = 0
        self.lookups = 0
        self.mispredicts = 0

    def _index(self, pc: int):
        idx = (pc ^ self.history) & self.cache_mask
        tag = pc & self.tag_mask
        return idx, tag

    def predict(self, pc: int) -> bool:
        bias_taken = self.choice[pc & self.choice_mask] >= 2
        cache = self.nt_cache if bias_taken else self.t_cache
        idx, tag = self._index(pc)
        entry = cache.get(idx)
        if entry is not None and entry[0] == tag:
            return entry[1] >= 2
        return bias_taken

    def update(self, pc: int, taken: bool):
        self.lookups += 1
        if self.predict(pc) != taken:
            self.mispredicts += 1
        bias_taken = self.choice[pc & self.choice_mask] >= 2
        cache = self.nt_cache if bias_taken else self.t_cache
        idx, tag = self._index(pc)
        entry = cache.get(idx)
        hit = entry is not None and entry[0] == tag
        if hit:
            cache[idx] = (tag, _update_counter(entry[1], taken))
        elif taken != bias_taken:
            # Allocate on a branch that disagrees with its bias.
            cache[idx] = (tag, 3 if taken else 0)
        # The choice table tracks the per-branch bias; it is not
        # updated when the exception cache correctly overrode it.
        if not (hit and (entry[1] >= 2) == taken and taken != bias_taken):
            ci = pc & self.choice_mask
            self.choice[ci] = _update_counter(self.choice[ci], taken)
        self.history = ((self.history << 1) | int(taken)) \
            & self.history_mask

    def accuracy(self) -> float:
        if not self.lookups:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups


class StaticPredictor:
    """Always predicts not-taken (shader-style core)."""

    def __init__(self):
        self.lookups = 0
        self.mispredicts = 0

    def predict(self, pc: int) -> bool:
        return False

    def update(self, pc: int, taken: bool):
        self.lookups += 1
        if taken:
            self.mispredicts += 1

    def accuracy(self) -> float:
        if not self.lookups:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups


_PREDICTORS = {
    "yags": YagsPredictor,
    "static": StaticPredictor,
}


def make_predictor(kind: str):
    try:
        return _PREDICTORS[kind]()
    except KeyError:
        raise ValueError(f"unknown predictor {kind!r}") from None
