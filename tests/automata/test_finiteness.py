"""Tests for language finiteness / loop analysis (drives the FCR check)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import EPSILON, NFA, enumerate_words, has_graph_cycle, language_is_finite
from repro.automata.finiteness import loop_analysis
from tests.oracles import finiteness as oracle


def chain(words_accepting=True):
    nfa = NFA(initial=["0"], accepting=["2"])
    nfa.add_transition("0", "a", "1")
    nfa.add_transition("1", "b", "2")
    return nfa


class TestLanguageIsFinite:
    def test_finite_chain(self):
        assert language_is_finite(chain())

    def test_infinite_self_loop(self):
        nfa = chain()
        nfa.add_transition("1", "a", "1")
        assert not language_is_finite(nfa)

    def test_infinite_two_state_cycle(self):
        nfa = chain()
        nfa.add_transition("1", "x", "0")
        assert not language_is_finite(nfa)

    def test_useless_cycle_is_ignored(self):
        nfa = chain()
        # Cycle reachable but not co-reachable to accepting.
        nfa.add_transition("0", "z", "junk")
        nfa.add_transition("junk", "z", "junk")
        assert language_is_finite(nfa)

    def test_unreachable_cycle_is_ignored(self):
        nfa = chain()
        nfa.add_transition("ghost", "z", "ghost")
        nfa.add_transition("ghost", "a", "2")
        assert language_is_finite(nfa)

    def test_epsilon_only_cycle_is_finite(self):
        nfa = chain()
        # ε-only cycle between "1" and a helper: pumps nothing.
        nfa.add_transition("1", EPSILON, "m")
        nfa.add_transition("m", EPSILON, "1")
        assert language_is_finite(nfa)

    def test_empty_language_is_finite(self):
        assert language_is_finite(NFA(initial=["i"]))

    def test_epsilon_cycle_with_real_edge_inside_is_infinite(self):
        nfa = chain()
        nfa.add_transition("1", EPSILON, "m")
        nfa.add_transition("m", "c", "1")
        assert not language_is_finite(nfa)


class TestHasGraphCycle:
    def test_acyclic(self):
        assert not has_graph_cycle(chain())

    def test_self_loop(self):
        nfa = chain()
        nfa.add_transition("1", "a", "1")
        assert has_graph_cycle(nfa)

    def test_epsilon_self_loop_counts_as_graph_cycle(self):
        nfa = chain()
        nfa.add_transition("1", EPSILON, "1")
        assert has_graph_cycle(nfa)

    def test_useless_cycle_ignored_by_default(self):
        nfa = chain()
        nfa.add_transition("junk", "z", "junk")
        assert not has_graph_cycle(nfa)
        assert has_graph_cycle(nfa, useful_only=False)


class TestEnumerateWords:
    def test_enumerates_exactly(self):
        nfa = NFA(initial=["0"], accepting=["0"])
        nfa.add_transition("0", "a", "0")
        words = set(enumerate_words(nfa, 3))
        assert words == {(), ("a",), ("a", "a"), ("a", "a", "a")}

    def test_finite_language_fully_listed(self):
        words = set(enumerate_words(chain(), 5))
        assert words == {("a", "b")}


@st.composite
def random_nfa(draw):
    n_states = draw(st.integers(min_value=1, max_value=5))
    states = list(range(n_states))
    nfa = NFA(
        initial=draw(st.sets(st.sampled_from(states), min_size=1, max_size=2)),
        accepting=draw(st.sets(st.sampled_from(states), max_size=3)),
    )
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        nfa.add_transition(
            draw(st.sampled_from(states)),
            draw(st.sampled_from(["a", "b", EPSILON])),
            draw(st.sampled_from(states)),
        )
    return nfa


@settings(max_examples=80, deadline=None)
@given(random_nfa())
def test_finite_verdict_consistent_with_enumeration(nfa):
    """If declared finite, the word count must saturate well below the
    pumping threshold; if infinite, a longer word must keep appearing."""
    n = len(nfa.states)
    short = set(enumerate_words(nfa, n))
    longer = set(enumerate_words(nfa, 2 * n + 2))
    if language_is_finite(nfa):
        assert short == longer
    else:
        assert longer - short or any(len(w) > n for w in longer)


# ---------------------------------------------------------------------------
# The one-pass analysis against the O(SCCs × edges) oracle.
# ---------------------------------------------------------------------------

@st.composite
def planted_nfa(draw):
    """A random NFA with the shapes the one-pass scan must tell apart
    planted on purpose: ε-cycles, ε-cycles holding one real edge,
    cycles that are useless (no accepting state after them) or
    unreachable (no initial state before them), and self-loops of
    either kind, over several initial states."""
    n_states = draw(st.integers(min_value=1, max_value=7))
    states = list(range(n_states))
    pick = st.sampled_from(states)
    label = st.sampled_from(["a", "b", EPSILON])
    nfa = NFA(
        initial=draw(st.sets(pick, min_size=1, max_size=3)),
        accepting=draw(st.sets(pick, max_size=3)),
    )
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        nfa.add_transition(draw(pick), draw(label), draw(pick))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        cycle = draw(st.lists(pick, min_size=1, max_size=4, unique=True))
        labels = [EPSILON] * len(cycle)
        if draw(st.booleans()):
            labels[draw(st.integers(0, len(cycle) - 1))] = draw(st.sampled_from(["a", "b"]))
        for src, dst, edge in zip(cycle, cycle[1:] + cycle[:1], labels):
            nfa.add_transition(src, edge, dst)
    if draw(st.booleans()):
        # A self-loop on a fresh state that only leaves the graph (no
        # accepting state after it) or only enters it (no initial state
        # before it).
        fresh = draw(st.sampled_from(["useless", "unreachable"]))
        if fresh == "useless":
            nfa.add_transition(draw(pick), "a", fresh)
        else:
            nfa.add_transition(fresh, "a", draw(pick))
        nfa.add_transition(fresh, draw(label), fresh)
    return nfa


@settings(max_examples=300, deadline=None)
@given(planted_nfa())
def test_loop_analysis_matches_oracle(nfa):
    finite, has_loop = loop_analysis(nfa)
    assert finite == oracle.language_is_finite(nfa)
    assert has_loop == oracle.has_graph_cycle(nfa)
    assert language_is_finite(nfa) == finite
    assert has_graph_cycle(nfa) == has_loop
    assert has_graph_cycle(nfa, useful_only=False) == oracle.has_graph_cycle(
        nfa, useful_only=False
    )


@settings(max_examples=150, deadline=None)
@given(random_nfa())
def test_loop_analysis_matches_oracle_on_unplanted_nfas(nfa):
    assert loop_analysis(nfa) == (
        oracle.language_is_finite(nfa),
        oracle.has_graph_cycle(nfa),
    )
