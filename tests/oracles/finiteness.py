"""The O(SCCs × edges) finiteness and loop checks, kept as test oracles.

These are the original :mod:`repro.automata.finiteness` routines: one
Tarjan run per query, then a rescan of every transition once per SCC.
The library now decides both questions from one SCC labelling and one
edge scan; the property tests compare it against these on random
automata, so they stay here unchanged.
"""

from __future__ import annotations

from repro.automata.nfa import EPSILON, NFA


def _strongly_connected_components(nfa: NFA, restrict: frozenset) -> list[set]:
    """Iterative Tarjan over the transition graph restricted to ``restrict``."""
    index_of: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list[set] = []
    counter = 0

    adjacency: dict = {state: set() for state in restrict}
    for src, _label, dst in nfa.transitions():
        if src in restrict and dst in restrict:
            adjacency[src].add(dst)

    for root in restrict:
        if root in index_of:
            continue
        work = [(root, iter(adjacency[root]))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for nxt in successors:
                if nxt not in index_of:
                    index_of[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adjacency[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: set = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def language_is_finite(nfa: NFA) -> bool:
    """True iff the automaton accepts finitely many words.

    Infinite exactly if a useful SCC contains an internal edge labeled
    with a real (non-ε) symbol: that edge can be pumped on an accepting
    path arbitrarily often.
    """
    useful = nfa.useful_states()
    if not useful:
        return True
    for component in _strongly_connected_components(nfa, useful):
        for src, label, dst in nfa.transitions():
            # An edge with both endpoints in one SCC lies on a cycle
            # (singleton SCCs only qualify via self-loops, src == dst).
            if src in component and dst in component and label is not EPSILON:
                return False
    return True


def has_graph_cycle(nfa: NFA, useful_only: bool = True) -> bool:
    """True iff the transition graph contains a cycle (any labels).

    With ``useful_only`` (the default) only states on initial→accepting
    paths are considered, matching the paper's reading of PSA loops.
    """
    restrict = nfa.useful_states() if useful_only else nfa.states
    for component in _strongly_connected_components(nfa, restrict):
        if len(component) > 1:
            return True
        member = next(iter(component))
        for label in nfa.labels_from(member):
            if member in nfa.targets(member, label):
                return True
    return False
