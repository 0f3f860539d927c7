"""Context-insensitive overapproximation ``Z`` (paper Sec. 4.1.3, Alg. 2).

Each thread's PDS is cut off at stack depth 1: pushes forget what lies
underneath, and pops nondeterministically "emerge" any symbol ever
written under a push (the candidate set ``E``), or nothing.  The
asynchronous product of these finite systems is explored exhaustively;
its reachable set ``Z`` overapproximates the reachable visible states
``T(R)`` (Lemma 12) and is used to bound the reachable generators
``G ∩ T(R) ⊆ G ∩ Z``.

The exhaustive BFS runs over ints, not visible states.  Each thread's
``(shared, top)`` alphabet of ``Mi`` is interned once, and a product
state ``⟨q|σ1,...,σn⟩`` is packed into one mixed-radix int with ``q``
in the lowest digit and ``σi`` in digit ``i``.  A move of ``Mi``
rewrites two digits, so each of its transitions is stored as the int
to add to the state with those two digits cleared.  The verdict path
(:func:`generators_in_z`) needs only ``|Z|`` and ``G ∩ Z``: it tests
generator membership on the digits and decodes only the members of
``G ∩ Z`` to :class:`~repro.cpds.state.VisibleState`.
:func:`compute_z` decodes the whole set from the same BFS.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable
from dataclasses import dataclass

from repro.cpds.cpds import CPDS
from repro.cpds.state import VisibleState
from repro.cuba.generators import GeneratorAnalysis
from repro.pds.action import ActionKind
from repro.pds.pds import PDS
from repro.pds.state import EMPTY
from repro.util.meter import METER

Shared = Hashable
Symbol = Hashable

#: A state of the finite abstraction ``Mi``: (shared, top ∈ Σ≤1).
MState = tuple


@dataclass(frozen=True)
class FiniteAbstraction:
    """The finite-state system ``M = (Q×Σ≤1, T)`` produced by Alg. 2."""

    transitions: dict[MState, frozenset[MState]]
    emerging: frozenset[Symbol]

    def successors(self, state: MState) -> frozenset[MState]:
        return self.transitions.get(state, frozenset())

    def n_transitions(self) -> int:
        return sum(len(targets) for targets in self.transitions.values())


def build_abstraction(pds: PDS) -> FiniteAbstraction:
    """Alg. 2: cut the stack off at size 1.

    Every action contributes ``(q,w) ↦ (q', T(w'))``; actions that leave
    the stack empty additionally contribute ``(q,w) ↦ (q', ρ)`` for every
    emerging candidate ``ρ ∈ E`` (we follow the paper and apply this to
    every action with ``w' = ε``, pops and empty-stack overwrites alike —
    a context-insensitive overapproximation either way).
    """
    emerging: set[Symbol] = set()
    for action in pds.actions:
        if action.kind is ActionKind.PUSH:
            emerging.add(action.write[1])

    transitions: dict[MState, set[MState]] = {}

    def add(src: MState, dst: MState) -> None:
        transitions.setdefault(src, set()).add(dst)

    for action in pds.actions:
        read_top = action.read[0] if action.read else EMPTY
        write_top = action.write[0] if action.write else EMPTY
        source = (action.from_shared, read_top)
        add(source, (action.to_shared, write_top))
        if not action.write:  # stack left empty: emerging candidates
            for candidate in emerging:
                add(source, (action.to_shared, candidate))

    return FiniteAbstraction(
        {src: frozenset(dsts) for src, dsts in transitions.items()},
        frozenset(emerging),
    )


def abstract_visible_levels(cpds: CPDS, max_levels: int = 64) -> list[frozenset[VisibleState]]:
    """The *stratified* abstract sequence ``(A_k)`` with ``T(Rk) ⊆ A_k``.

    The paper's conclusion asks whether ``T(Rk)`` can be computed by
    abstract transfer functions instead of projections from ``Rk``.
    This is the context-insensitive answer: ``A_0`` is the initial
    visible state and ``A_{k+1}`` closes ``A_k``'s frontier under one
    abstract context per thread (a BFS over the Alg. 2 system ``Mi``).
    By the Lemma 12 argument applied per context, ``T(Rk) ⊆ A_k`` for
    every ``k``; the limit of the sequence is exactly ``Z``.

    Returns cumulative levels; the sequence is monotone over a finite
    domain and collapses within ``|Q×Σ≤1×...×Σ≤1|`` steps (``max_levels``
    is a safety rail only).
    """
    abstractions = [build_abstraction(pds) for pds in cpds.threads]

    def context_closure(state: VisibleState, index: int) -> set[VisibleState]:
        abstraction = abstractions[index]
        closed = {state}
        work = deque([state])
        while work:
            current = work.popleft()
            METER.bump("overapprox.abstract_steps")
            local = (current.shared, current.tops[index])
            for shared, top in abstraction.successors(local):
                tops = list(current.tops)
                tops[index] = top
                successor = VisibleState(shared, tuple(tops))
                if successor not in closed:
                    closed.add(successor)
                    work.append(successor)
        return closed

    initial = cpds.initial_state().visible()
    levels = [frozenset([initial])]
    seen: set[VisibleState] = {initial}
    frontier: set[VisibleState] = {initial}
    while frontier and len(levels) <= max_levels:
        fresh: set[VisibleState] = set()
        for state in frontier:
            for index in range(cpds.n_threads):
                fresh |= context_closure(state, index)
        fresh -= seen
        if not fresh:
            break
        seen |= fresh
        levels.append(frozenset(seen))
        frontier = fresh
    return levels


def abstract_bug_lower_bound(cpds: CPDS, prop) -> int | None:
    """Sound lower bound on the context bound of any violation.

    If the first abstract level containing a violating visible state is
    ``k0``, then no execution with fewer than ``k0`` contexts violates
    the property (``T(Rk) ⊆ A_k``).  Returns ``None`` when even the
    abstract limit (= ``Z``) is violation-free — i.e. the program is
    safe outright (the :func:`~repro.cuba.quickcheck.quick_check` case).
    """
    for k, level in enumerate(abstract_visible_levels(cpds)):
        if prop.find_violation(level) is not None:
            return k
    return None


@dataclass(frozen=True, slots=True)
class _PackedProduct:
    """The asynchronous product ``Mn`` over packed int states.

    State ``⟨shared[q]|tops[0][t0],...⟩`` is ``q + Σ ti * strides[i]``;
    the initial visible state is 0 (every id 0).  ``moves[i][q *
    len(tops[i]) + t]`` lists, for the local state ``(q, t)`` of ``Mi``,
    the int each successor adds to a state whose shared and top-``i``
    digits are zeroed.
    """

    shared: tuple[Shared, ...]
    tops: tuple[tuple[Symbol, ...], ...]
    strides: tuple[int, ...]
    moves: tuple[tuple[tuple[int, ...], ...], ...]

    def decode(self, codes) -> frozenset[VisibleState]:
        """The visible states packed as ``codes``."""
        shared, n_shared = self.shared, len(self.shared)
        digits = [
            (alphabet, stride, len(alphabet))
            for alphabet, stride in zip(self.tops, self.strides)
        ]
        return frozenset(
            VisibleState(
                shared[code % n_shared],
                tuple([alphabet[code // stride % n] for alphabet, stride, n in digits]),
            )
            for code in codes
        )

    def reachable(self) -> set[int]:
        """The BFS closure of the initial state: ``Z``, packed.

        Counts one ``overapprox.abstract_steps`` per dequeued state,
        that is ``|Z|``, in one bump at the end."""
        n_shared = len(self.shared)
        threads = [
            (stride, len(alphabet), moves)
            for stride, alphabet, moves in zip(self.strides, self.tops, self.moves)
        ]
        seen = {0}
        work = deque(seen)
        visit, schedule, pop = seen.add, work.append, work.popleft
        while work:
            code = pop()
            shared = code % n_shared
            for stride, n_tops, moves in threads:
                top = code // stride % n_tops
                targets = moves[shared * n_tops + top]
                if not targets:
                    continue
                base = code - shared - top * stride
                for delta in targets:
                    successor = base + delta
                    if successor not in seen:
                        visit(successor)
                        schedule(successor)
        METER.bump("overapprox.abstract_steps", len(seen))
        return seen


def _pack(cpds: CPDS) -> _PackedProduct:
    """Intern the Alg. 2 alphabets of ``cpds`` and pack its product."""
    abstractions = [build_abstraction(pds) for pds in cpds.threads]
    initial = cpds.initial_state().visible()
    shared_ids: dict[Shared, int] = {initial.shared: 0}
    top_ids: list[dict[Symbol, int]] = [{top: 0} for top in initial.tops]
    for abstraction, ids in zip(abstractions, top_ids):
        for source, targets in abstraction.transitions.items():
            for shared, top in (source, *targets):
                shared_ids.setdefault(shared, len(shared_ids))
                ids.setdefault(top, len(ids))
    strides: list[int] = []
    place = len(shared_ids)
    for ids in top_ids:
        strides.append(place)
        place *= len(ids)
    moves = []
    for abstraction, ids, stride in zip(abstractions, top_ids, strides):
        table: list[tuple[int, ...]] = [()] * (len(shared_ids) * len(ids))
        for (shared, top), targets in abstraction.transitions.items():
            table[shared_ids[shared] * len(ids) + ids[top]] = tuple(
                shared_ids[q] + ids[t] * stride for q, t in targets
            )
        moves.append(tuple(table))
    return _PackedProduct(
        shared=tuple(shared_ids),
        tops=tuple(tuple(ids) for ids in top_ids),
        strides=tuple(strides),
        moves=tuple(moves),
    )


def compute_z(cpds: CPDS) -> frozenset[VisibleState]:
    """Reachable set ``Z`` of the asynchronous product ``Mn``.

    Starts from the projection of the CPDS initial state (the paper
    starts ``M2`` in ``⟨0|1,4⟩`` for Fig. 1) and explores exhaustively —
    the state space is contained in ``Q × Σ≤1_1 × ... × Σ≤1_n``.
    """
    product = _pack(cpds)
    return product.decode(product.reachable())


def generators_in_z(
    cpds: CPDS, analysis: GeneratorAnalysis
) -> tuple[int, frozenset[VisibleState]]:
    """``(|Z|, G ∩ Z)`` from one packed BFS, decoding only ``G ∩ Z``.

    Equal to ``(len(z), analysis.intersect(z))`` for ``z =
    compute_z(cpds)``: membership in ``G`` (Eq. 2) is tested on the
    digits, against the ids of each thread's pop targets and of its
    emerging symbols plus :data:`~repro.pds.state.EMPTY`.
    """
    product = _pack(cpds)
    z = product.reachable()
    n_shared = len(product.shared)
    tests = []
    for alphabet, stride, pops, emerging in zip(
        product.tops, product.strides, analysis.pop_targets, analysis.emerging
    ):
        pop_ids = {index for index, shared in enumerate(product.shared) if shared in pops}
        top_ids = {
            index
            for index, top in enumerate(alphabet)
            if top is EMPTY or top in emerging
        }
        if pop_ids and top_ids:
            tests.append((stride, len(alphabet), pop_ids, top_ids))
    generators = []
    for code in z:
        shared = code % n_shared
        for stride, n_tops, pop_ids, top_ids in tests:
            if shared in pop_ids and code // stride % n_tops in top_ids:
                generators.append(code)
                break
    return len(z), product.decode(generators)
