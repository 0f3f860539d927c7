"""Tests for the FCR condition — golden verdicts from Fig. 4 / Ex. 15,
and the per-thread verdicts of every paper model pinned."""

import pytest

from repro.cpds import CPDS
from repro.cuba import check_fcr, thread_shallow_psa
from repro.models import fig1_cpds, fig2_cpds
from repro.models.registry import runnable_benchmarks, smallest_per_row
from repro.pds import PDS
from repro.reach import registry
from tests.oracles import finiteness as oracle


class TestFig4Verdicts:
    def test_fig1_satisfies_fcr(self):
        report = check_fcr(fig1_cpds())
        assert report.holds
        assert report.thread_finite == (True, True)
        # Fig. 4 (left two): the PSAs are loop-free.
        assert report.thread_has_loop == (False, False)

    def test_fig2_violates_fcr(self):
        report = check_fcr(fig2_cpds())
        assert not report.holds
        assert report.thread_finite == (False, False)
        # Fig. 4 (right two): self-loops in both automata.
        assert report.thread_has_loop == (True, True)

    def test_report_str(self):
        assert "holds" in str(check_fcr(fig1_cpds()))
        assert "fails" in str(check_fcr(fig2_cpds()))


class TestShallowPsa:
    def test_fig1_thread_languages_finite(self):
        for pds in fig1_cpds().threads:
            assert thread_shallow_psa(pds).language_is_finite()

    def test_fig2_thread_languages_infinite(self):
        for pds in fig2_cpds().threads:
            assert not thread_shallow_psa(pds).language_is_finite()

    def test_shallow_psa_accepts_seed_configs(self):
        pds = fig1_cpds().thread(1)
        psa = thread_shallow_psa(pds)
        for shared in pds.shared_states:
            assert psa.accepts_config(shared, ())
            for symbol in pds.alphabet:
                assert psa.accepts_config(shared, (symbol,))


class TestMixedCases:
    def test_one_bad_thread_spoils_fcr(self):
        good = PDS(initial_shared=0, shared_states={0, 1})
        good.rule(0, "a", 1, ("b",))
        bad = PDS(initial_shared=0, shared_states={0, 1})
        bad.rule(0, "x", 0, ("x", "x"))  # pumps within one context
        report = check_fcr(CPDS([good, bad], initial_stacks=[("a",), ("x",)]))
        assert report.thread_finite == (True, False)
        assert not report.holds

    def test_recursion_with_bounded_depth_is_fcr(self):
        # Pushes exist but every push is immediately popped: depth ≤ 2.
        pds = PDS(initial_shared=0, shared_states={0, 1})
        pds.rule(0, "a", 1, ("c", "b"))  # call
        pds.rule(1, "c", 0, ())          # immediate return
        report = check_fcr(CPDS([pds], initial_stacks=[("a",)]))
        assert report.holds

    def test_non_recursive_threads_trivially_fcr(self):
        pds = PDS(initial_shared=0, shared_states={0, 1})
        pds.rule(0, "a", 1, ("b",))
        pds.rule(1, "b", 0, ("a",))
        assert check_fcr(CPDS([pds], initial_stacks=[("a",)])).holds


# ---------------------------------------------------------------------------
# Pinned verdicts: (model, thread_finite, thread_has_loop, applicable lanes),
# as the O(SCCs × edges) check decided them.  The explicit lane's
# precondition is FCR and the wuba lane's is WCR, both decided by the
# same finiteness routine, so the lane sets pin it too.
# ---------------------------------------------------------------------------

PINNED = (
    ("fig1", (True, True), (False, False), ('explicit', 'symbolic', 'wuba')),
    ("fig2", (False, False), (True, True), ('symbolic',)),
    ("1/Bluetooth-1 [1+1]", (True, True), (False, False), ('explicit', 'symbolic', 'wuba')),
    ("1/Bluetooth-1 [1+2]", (True, True, True), (False, False, False), ('explicit', 'symbolic', 'wuba')),
    ("1/Bluetooth-1 [2+1]", (True, True, True), (False, False, False), ('explicit', 'symbolic', 'wuba')),
    ("2/Bluetooth-2 [1+1]", (True, True), (False, False), ('explicit', 'symbolic', 'wuba')),
    ("2/Bluetooth-2 [1+2]", (True, True, True), (False, False, False), ('explicit', 'symbolic', 'wuba')),
    ("2/Bluetooth-2 [2+1]", (True, True, True), (False, False, False), ('explicit', 'symbolic', 'wuba')),
    ("3/Bluetooth-3 [1+1]", (True, True), (False, False), ('explicit', 'symbolic', 'wuba')),
    ("3/Bluetooth-3 [1+2]", (True, True, True), (False, False, False), ('explicit', 'symbolic', 'wuba')),
    ("3/Bluetooth-3 [2+1]", (True, True, True), (False, False, False), ('explicit', 'symbolic', 'wuba')),
    ("4/BST-Insert [1+1]", (True, True), (False, False), ('explicit', 'symbolic', 'wuba')),
    ("4/BST-Insert [2+1]", (True, True, True), (False, False, False), ('explicit', 'symbolic', 'wuba')),
    ("4/BST-Insert [2+2]", (True, True, True, True), (False, False, False, False), ('explicit', 'symbolic', 'wuba')),
    ("5/FileCrawler [1•+2]", (True, True, True), (False, False, False), ('explicit', 'symbolic', 'wuba')),
    ("6/K-Induction [1+1]", (False, False), (True, True), ('symbolic',)),
    ("7/Proc-2 [2+2•]", (False, False, True, True), (True, True, False, False), ('symbolic',)),
    ("8/Stefan-1 [2]", (False, False), (True, True), ('symbolic', 'wuba')),
    ("8/Stefan-1 [4]", (False, False, False, False), (True, True, True, True), ('symbolic', 'wuba')),
    ("9/Dekker [2•]", (True, True), (False, False), ('explicit', 'symbolic', 'wuba')),
)

MODELS = {
    "fig1": lambda: (fig1_cpds(), None),
    "fig2": lambda: (fig2_cpds(), None),
    **{bench.name: bench.build for bench in runnable_benchmarks()},
}


def test_pins_cover_every_runnable_row():
    assert {name for name, *_ in PINNED} == set(MODELS)


@pytest.mark.parametrize(
    "name, finite, has_loop, lanes", PINNED, ids=[row[0] for row in PINNED]
)
def test_pinned_fcr_and_applicable_lanes(name, finite, has_loop, lanes):
    cpds, prop = MODELS[name]()
    report = check_fcr(cpds)
    assert report.thread_finite == finite
    assert report.thread_has_loop == has_loop
    assert registry.applicable_lanes(cpds, prop) == lanes


@pytest.mark.parametrize(
    "name", ["fig1", "fig2", *(bench.name for bench in smallest_per_row())]
)
def test_psa_loop_analysis_matches_oracle(name):
    cpds, _ = MODELS[name]()
    for pds in cpds.threads:
        psa = thread_shallow_psa(pds)
        nfa = psa._as_initialized_nfa()
        assert psa.loop_analysis() == (
            oracle.language_is_finite(nfa),
            oracle.has_graph_cycle(nfa),
        )
