"""Language finiteness and loop analysis.

The FCR check of the paper (Sec. 5, Fig. 4) decides whether the language
of a pushdown store automaton is finite: "every path from an initial state
to an accepting state is simple".  Equivalently, the language is infinite
exactly if some *useful* state (reachable from an initial state and
co-reachable to an accepting state) lies on a cycle that can pump at least
one real symbol.  ε-only cycles do not lengthen accepted words, so they
do not make the language infinite; the cruder "no loops" statement of
Fig. 4, which counts them, is the ``has_loop`` half of the answer.

Both halves come from one pass in ``O(V + E)``: one Tarjan run labels
every useful state with its SCC id, then one scan over the edges between
useful states looks for an edge whose two ends share an SCC id.  Such an
edge lies on a cycle (a self-loop, or an edge inside a larger SCC), and
every cycle contains one.  So the graph has a loop iff some internal edge
exists, with any label, and the language is infinite iff some internal
edge reads a real symbol.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator

from repro.automata.nfa import EPSILON, NFA

State = Hashable
Symbol = Hashable


def _scc_ids(successors: dict[State, list[State]]) -> dict[State, int]:
    """Iterative Tarjan: map every state of the graph to its SCC id.

    The roots are the states with successors; the rest are reached."""
    index_of: dict[State, int] = {}
    lowlink: dict[State, int] = {}
    component: dict[State, int] = {}
    stack: list[State] = []
    counter = 0
    n_components = 0
    for root in successors:
        if root in index_of:
            continue
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(successors.get(root, ())))]
        while work:
            node, pending = work[-1]
            for nxt in pending:
                if nxt not in index_of:
                    index_of[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    work.append((nxt, iter(successors.get(nxt, ()))))
                    break
                if nxt not in component and index_of[nxt] < lowlink[node]:
                    lowlink[node] = index_of[nxt]  # nxt is still on the stack
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
                if lowlink[node] == index_of[node]:
                    while True:
                        member = stack.pop()
                        component[member] = n_components
                        if member == node:
                            break
                    n_components += 1
    return component


def _loops_within(nfa: NFA, restrict: frozenset) -> tuple[bool, bool]:
    """``(pumps_no_symbol, has_cycle)`` over the subgraph on ``restrict``:
    one SCC labelling, then one scan of the edges inside ``restrict``."""
    edges: list[tuple[State, Symbol, State]] = []
    successors: dict[State, list[State]] = {}
    for src, label, dst in nfa.transitions():
        if src in restrict and dst in restrict:
            edges.append((src, label, dst))
            successors.setdefault(src, []).append(dst)
    component = _scc_ids(successors)
    has_cycle = False
    for src, label, dst in edges:
        # Both ends in one SCC: the edge lies on a cycle.
        if component[src] == component[dst]:
            if label is not EPSILON:
                return False, True
            has_cycle = True
    return True, has_cycle


def loop_analysis(nfa: NFA) -> tuple[bool, bool]:
    """``(finite, has_loop)``: :func:`language_is_finite` and
    :func:`has_graph_cycle` of ``nfa`` from one pass over its useful part."""
    return _loops_within(nfa, nfa.useful_states())


def language_is_finite(nfa: NFA) -> bool:
    """True iff the automaton accepts finitely many words.

    Infinite exactly if a useful SCC contains an internal edge labeled
    with a real (non-ε) symbol: that edge can be pumped on an accepting
    path arbitrarily often.
    """
    return loop_analysis(nfa)[0]


def has_graph_cycle(nfa: NFA, useful_only: bool = True) -> bool:
    """True iff the transition graph contains a cycle (any labels).

    With ``useful_only`` (the default) only states on initial→accepting
    paths are considered, matching the paper's reading of PSA loops.
    """
    restrict = nfa.useful_states() if useful_only else nfa.states
    return _loops_within(nfa, restrict)[1]


def enumerate_words(nfa: NFA, max_length: int) -> Iterator[tuple]:
    """Yield every accepted word of length ≤ ``max_length`` (as tuples).

    Used by tests to compare automata against explicitly enumerated
    languages; exponential, keep ``max_length`` small.
    """
    symbols = sorted(nfa.alphabet(), key=lambda s: (type(s).__qualname__, repr(s)))
    start = nfa.epsilon_closure(nfa.initial)
    frontier: list[tuple[tuple, frozenset]] = [((), start)]
    while frontier:
        word, states = frontier.pop(0)
        if states & nfa.accepting:
            yield word
        if len(word) == max_length:
            continue
        for symbol in symbols:
            nxt = nfa.step(states, symbol)
            if nxt:
                frontier.append((word + (symbol,), nxt))
