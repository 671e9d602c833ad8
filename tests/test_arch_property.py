"""Hypothesis property tests for the stack-distance cache model.

``StackDistanceProfile`` is otherwise only ever compared with its own
previous output (the rendered tables). Here it is checked against two
things that are not itself: a brute-force O(n^2) LRU stack, and the
exact ``CacheSim`` array configured fully associative.  Marked
``property`` like the fastpath kernel checks; CI runs them in the
``property-tests`` job.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.arch import CacheSim, StackDistanceProfile
from repro.arch.cache import BLOCK
from repro.profiling.memtrace import RECORD_BYTES, group_blocks
from repro.profiling.report import PHASES, TouchGroup

pytestmark = pytest.mark.property

RELAXED = settings(max_examples=60, deadline=None)

_ids = st.lists(st.integers(0, 40), min_size=0, max_size=24)


def _groups(max_repeat):
    group = st.builds(TouchGroup, st.sampled_from(sorted(RECORD_BYTES)),
                      _ids, st.integers(1, max_repeat))
    return st.lists(st.tuples(st.sampled_from(PHASES), group),
                    min_size=0, max_size=12)


_capacities = st.integers(1, 200).map(lambda lines: lines * BLOCK)


def _brute_force(labelled_groups):
    """Histograms by walking an explicit LRU stack (most recent last).
    A group's first sweep is replayed; its ``repeat - 1`` further sweeps
    each re-reference at the footprint's distance, the analytic rule
    ``arch/cache.py`` documents."""
    stack = []
    histograms, cold, accesses = {}, {}, {}
    for label, group in labelled_groups:
        blocks = group_blocks(group)
        if not blocks:
            continue
        hist = histograms.setdefault(label, {})
        for block in blocks:
            if block in stack:
                distance = len(stack) - 1 - stack.index(block)
                hist[distance] = hist.get(distance, 0) + 1
                stack.remove(block)
            else:
                cold[label] = cold.get(label, 0) + 1
            stack.append(block)
        accesses[label] = (accesses.get(label, 0)
                           + len(blocks) * group.repeat)
        if group.repeat > 1:
            footprint = len(set(blocks))
            hist[footprint] = (hist.get(footprint, 0)
                               + (group.repeat - 1) * len(blocks))
    return histograms, cold, accesses


@RELAXED
@given(groups=_groups(max_repeat=4))
def test_profile_matches_brute_force_lru_stack(groups):
    profile = StackDistanceProfile.from_groups(groups)
    histograms, cold, accesses = _brute_force(groups)
    assert profile.histograms == histograms
    assert profile.cold == cold
    assert profile.accesses == accesses


@RELAXED
@given(groups=_groups(max_repeat=4),
       capacities=st.lists(_capacities, min_size=2, max_size=8))
def test_misses_never_rise_with_capacity(groups, capacities):
    profile = StackDistanceProfile.from_groups(groups)
    for labels in (None, PHASES[:2]):
        curve = [profile.misses(c, labels) for c in sorted(capacities)]
        assert curve == sorted(curve, reverse=True)
        assert curve[0] <= profile.total_accesses(labels)


@RELAXED
@given(groups=_groups(max_repeat=1), capacity=_capacities)
def test_misses_match_fully_associative_cachesim(groups, capacity):
    profile = StackDistanceProfile.from_groups(groups)
    sim = CacheSim(capacity, ways=capacity // BLOCK)
    assert sim.sets == 1
    misses = {}  # label -> misses in the shared cache
    for label, group in groups:
        for block in group_blocks(group):
            if not sim.access(block):
                misses[label] = misses.get(label, 0) + 1
    assert profile.misses(capacity) == sim.misses
    for label in profile.labels():
        assert profile.misses(capacity, (label,)) \
            == misses.get(label, 0)
