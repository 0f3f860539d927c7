"""The ``VisibleState`` BFS for ``Z`` (Alg. 2), kept as a test oracle.

This is the original :func:`repro.cuba.overapprox.compute_z`: it builds
one :class:`~repro.cpds.state.VisibleState` per product state.  The
library now runs the BFS over packed ints and decodes only what its
caller needs; the differential tests compare it against this one, so
it stays here unchanged.
"""

from __future__ import annotations

from collections import deque

from repro.cpds.cpds import CPDS
from repro.cpds.state import VisibleState
from repro.cuba.overapprox import build_abstraction
from repro.util.meter import METER


def compute_z(cpds: CPDS) -> frozenset[VisibleState]:
    """Reachable set ``Z`` of the asynchronous product ``Mn``.

    Starts from the projection of the CPDS initial state (the paper
    starts ``M2`` in ``⟨0|1,4⟩`` for Fig. 1) and explores exhaustively —
    the state space is contained in ``Q × Σ≤1_1 × ... × Σ≤1_n``.
    """
    abstractions = [build_abstraction(pds) for pds in cpds.threads]
    initial = cpds.initial_state().visible()
    seen: set[VisibleState] = {initial}
    work: deque[VisibleState] = deque([initial])
    while work:
        current = work.popleft()
        METER.bump("overapprox.abstract_steps")
        for index, abstraction in enumerate(abstractions):
            local = (current.shared, current.tops[index])
            for shared, top in abstraction.successors(local):
                tops = list(current.tops)
                tops[index] = top
                successor = VisibleState(shared, tuple(tops))
                if successor not in seen:
                    seen.add(successor)
                    work.append(successor)
    return frozenset(seen)
