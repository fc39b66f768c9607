"""Fixtures shared by the test modules."""
from collections import deque

import pytest


def _is_acyclic(graph) -> bool:
    """Kahn's algorithm over state ids and `successors`."""
    indeg = [0] * graph.node_count
    for i in range(graph.node_count):
        for t in graph.successors(i):
            indeg[t] += 1
    queue = deque(i for i, d in enumerate(indeg) if d == 0)
    seen = 0
    while queue:
        i = queue.popleft()
        seen += 1
        for t in graph.successors(i):
            indeg[t] -= 1
            if indeg[t] == 0:
                queue.append(t)
    return seen == graph.node_count


@pytest.fixture
def is_acyclic():
    """True iff a state graph has no cycle."""
    return _is_acyclic
