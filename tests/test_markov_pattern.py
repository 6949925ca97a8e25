"""Exact-oracle tests: enumeration brute force is the ground truth throughout."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hittimes.errors import (
    BudgetExceededError,
    NumericalDriftError,
    ProbabilityUnderflowError,
    ValidationError,
)
from hittimes.estimators import TargetScan
from hittimes.markov_pattern import (
    BlockChain,
    MarkovSource,
    PatternTarget,
    block_hitting_pmf,
    block_return_pmf,
    block_set_return_pmf,
    build_automaton,
    consecutive_joint_pmf,
    counterexample_pruned_target,
    hitting_pmf,
    k_grid,
    llt_convergence_table,
    masses_at,
    return_excess,
    return_pmf,
    theta_exact,
    verify_inducing_identity,
    verify_shift_identity_grid,
)
from hittimes.markov_pattern import reports
from hittimes.markov_pattern import source as source_module
from hittimes.markov_pattern.automaton import _border_lengths
from hittimes.markov_pattern.exact import (
    _BLOCK,
    _MASS_DRIFT_TOL,
    ExactPMF,
    ProductChain,
    _absorption_series,
    _block_pmf,
    _closing_tail,
    _exact_sum,
    _settled_direction,
    _start,
)

from oracles import (
    brute_consecutive_joint,
    brute_hitting_masses,
    brute_return_masses,
    brute_shift_identity_lhs,
    dict_product_kernel,
    full_vector_block_pmf,
    matrix_power_excess,
    mpmath_absorbed,
    scalar_first_match,
    scatter_block_step,
    series_consecutive_joint_pmf,
    stepwise_hitting_masses,
    stepwise_shift_lhs,
)

FAIR = MarkovSource.iid([0.5, 0.5])
BIASED = MarkovSource.iid([0.3, 0.7])
MARKOV2 = MarkovSource.from_transitions([[0.2, 0.8], [0.6, 0.4]])
MARKOV3 = MarkovSource.from_transitions(
    [[0.1, 0.5, 0.4], [0.3, 0.3, 0.4], [0.25, 0.5, 0.25]]
)
MARKOV4 = MarkovSource.from_transitions(
    [[0.1, 0.2, 0.3, 0.4], [0.4, 0.1, 0.1, 0.4], [0.25, 0.25, 0.3, 0.2], [0.05, 0.6, 0.15, 0.2]]
)


def _slowly_mixing_transitions(h: int = 33) -> np.ndarray:
    """Two uniform halves of h states, leaving A at rate 1e-9 and B at 3e-9."""
    p = np.empty((2 * h, 2 * h))
    p[:h, :h] = (1 - 1e-9) / h
    p[:h, h:] = 1e-9 / h
    p[h:, :h] = 3e-9 / h
    p[h:, h:] = (1 - 3e-9) / h
    return p


@st.composite
def small_markov_sources(draw, max_symbols=3):
    s = draw(st.integers(2, max_symbols))
    rows = []
    for _ in range(s):
        row = [draw(st.floats(0.05, 1.0)) for _ in range(s)]
        total = sum(row)
        rows.append([x / total for x in row])
    return MarkovSource.from_transitions(rows)


class TestMarkovSource:
    def test_rejects_non_stochastic(self):
        with pytest.raises(ValidationError):
            MarkovSource(transitions=np.array([[0.5, 0.6], [0.5, 0.5]]),
                         stationary=np.array([0.5, 0.5]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            MarkovSource.from_transitions([[1.2, -0.2], [0.5, 0.5]])

    def test_rejects_wrong_stationary(self):
        with pytest.raises(ValidationError):
            MarkovSource(transitions=np.array([[0.2, 0.8], [0.6, 0.4]]),
                         stationary=np.array([0.5, 0.5]))

    def test_caller_cannot_loosen_the_invariance_check(self):
        # the residual is measured, not passed in: a claimed residual of 0.1
        # once let (1/2, 1/2) through, and word_measure((0,)) then read 0.5
        # where the true stationary law gives 3/7
        with pytest.raises(TypeError):
            MarkovSource(transitions=[[0.2, 0.8], [0.6, 0.4]], stationary=[0.5, 0.5],
                         stationary_residual=0.1)
        with pytest.raises(ValidationError):
            MarkovSource(transitions=[[0.2, 0.8], [0.6, 0.4]], stationary=[0.5, 0.5])
        src = MarkovSource.from_transitions([[0.2, 0.8], [0.6, 0.4]])
        assert src.word_measure((0,)) == pytest.approx(3 / 7, abs=1e-15)
        assert src.stationary_residual <= 1e-15

    def test_rejects_reducible(self):
        with pytest.raises(ValidationError):
            MarkovSource.from_transitions([[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # a NaN passes every < and > check, so a source with one would have an
        # all-NaN stationary vector and word_measure would return nan
        with pytest.raises(ValidationError, match="must be finite"):
            MarkovSource.from_transitions([[bad, 1.0], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="must be finite"):
            MarkovSource(transitions=[[bad, 0.5], [0.5, 0.5]], stationary=[0.5, 0.5])
        with pytest.raises(ValidationError, match="must be finite"):
            MarkovSource(transitions=[[0.5, 0.5], [0.5, 0.5]], stationary=[bad, 0.5])
        with pytest.raises(ValidationError):
            MarkovSource.iid([bad, 0.5])
        with pytest.raises(ValidationError):
            MarkovSource.iid([bad, 0.5, 0.5])

    def test_rejects_periodic(self):
        with pytest.raises(ValidationError):
            MarkovSource.from_transitions([[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize(
        "rows,fault",
        [
            ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], "periodic"),
            ([[0.5, 0.5, 0], [0, 0, 1], [1, 0, 0]], None),
            ([[0.5, 0.5, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]], "reducible"),
            ([[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]],
             "reducible"),
        ],
        ids=["3-cycle", "3-cycle-with-self-loop", "transient-state", "block-diagonal-pair"],
    )
    def test_mixing_check(self, rows, fault):
        if fault is None:
            assert MarkovSource.from_transitions(rows).alphabet_size == len(rows)
        else:
            with pytest.raises(ValidationError, match=fault):
                MarkovSource.from_transitions(rows)

    def test_mixing_is_checked_once_per_construction(self, monkeypatch):
        calls = []
        check = source_module._check_mixing
        monkeypatch.setattr(source_module, "_check_mixing", lambda p: calls.append(1) or check(p))
        MarkovSource.from_transitions([[0.5, 0.5], [0.2, 0.8]])
        assert len(calls) == 1
        # the identity's solve is singular; its refusal names the chain
        with pytest.raises(ValidationError, match="reducible"):
            MarkovSource.from_transitions([[1.0, 0.0], [0.0, 1.0]])
        assert len(calls) == 2

        def singular(p):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(source_module, "_solve_stationary", singular)
        with pytest.raises(ValidationError, match="stationary solve failed: Singular matrix"):
            MarkovSource.from_transitions([[0.5, 0.5], [0.2, 0.8]])
        assert len(calls) == 3

    def test_stationary_solve(self):
        pi = MARKOV2.stationary
        assert np.allclose(pi @ MARKOV2.transitions, pi, atol=1e-14)
        assert pi.sum() == pytest.approx(1.0, abs=1e-14)

    def test_large_alphabet_stationary_solve(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        p = rng.random((80, 80)) + 0.01
        p /= p.sum(axis=1, keepdims=True)
        src = MarkovSource.from_transitions(p)
        assert np.max(np.abs(src.stationary @ p - src.stationary)) < 1e-12

    def test_slowly_mixing_large_alphabet(self):
        # pi(A) = 3/4; iterating pi @ P stalls near 1/2 long before the
        # halves balance, with a tiny step-to-step change
        src = MarkovSource.from_transitions(_slowly_mixing_transitions())
        assert src.stationary[:33].sum() == pytest.approx(0.75, abs=1e-6)

    def test_rows_are_stochastic_to_a_few_ulps(self):
        # a row leaking 1e-13 would move a series mass at k = 1e6 by about 1e-7
        for rows in ([[0.5, 0.5 - 1e-13], [0.5, 0.5]], [[0.5, 0.5], [0.5 + 1e-13, 0.5]]):
            with pytest.raises(ValidationError, match="rows must sum to 1"):
                MarkovSource.from_transitions(rows)
        with pytest.raises(ValidationError, match="sum to 1"):
            MarkovSource.iid([0.5, 0.5 - 1e-13])
        # rotations of [.1, .7, .2]: the row (.7, .2, .1) sums to one ulp below 1
        cyclic = [[0.1, 0.7, 0.2], [0.2, 0.1, 0.7], [0.7, 0.2, 0.1]]
        assert np.array(cyclic).sum(axis=1).min() == 1.0 - 2.0**-53
        assert MarkovSource.from_transitions(cyclic).alphabet_size == 3

    def test_word_measure(self):
        assert FAIR.word_measure((1, 1)) == 0.25
        assert BIASED.word_measure((0, 1)) == pytest.approx(0.3 * 0.7, abs=1e-15)
        assert MARKOV2.word_measure((0, 1, 0)) == pytest.approx(
            MARKOV2.stationary[0] * 0.8 * 0.6, abs=1e-15
        )


class TestAutomaton:
    def test_aba_failure_function(self):
        assert _border_lengths((0, 1, 0)) == [0, 0, 1]

    def test_single_symbol(self):
        table = build_automaton(PatternTarget(word=(1,)), 2)
        assert table.shape == (2, 2)
        assert scalar_first_match(table, [0, 1, 1, 0]) == (2, 1)
        assert scalar_first_match(table, [0, 0]) == (None, 0)
        assert scalar_first_match(table, [1], state=1) == (1, 1)

    def test_first_match_stops_at_the_first_full_match(self):
        table = build_automaton(PatternTarget(word=(0, 1, 0)), 2)
        assert scalar_first_match(table, [1, 0, 1, 0, 1, 0]) == (4, 3)
        assert scalar_first_match(table, [0, 1, 1]) == (None, 0)
        assert scalar_first_match(table, []) == (None, 0)
        # from the full match, "10" completes an overlapping occurrence
        assert scalar_first_match(table, [1, 0], state=3) == (2, 3)

    def test_overlap_restart(self):
        table = build_automaton(PatternTarget(word=(0, 0)), 2)
        # from the full match, another 0 keeps the full match (overlap)
        assert table[2, 0] == 2
        assert table[2, 1] == 0
        assert scalar_first_match(table, [0], state=2) == (1, 2)
        assert scalar_first_match(table, [1, 0, 0], state=2) == (3, 2)

    def test_table_is_read_only(self):
        table = build_automaton(PatternTarget(word=(0, 1)), 2)
        with pytest.raises(ValueError):
            table[0, 0] = 1

    def test_kmp_monotonicity(self):
        for word in [(0, 1, 0, 0, 1), (1, 1, 0, 1, 1, 0), (0, 0, 0)]:
            table = build_automaton(PatternTarget(word=word), 2)
            l = len(word)
            for s in range(l + 1):
                for c in range(2):
                    assert table[s, c] <= s + 1

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValidationError):
            build_automaton(PatternTarget(word=(0, 2)), 2)
        with pytest.raises(ValidationError):
            PatternTarget(word=())


@pytest.mark.parametrize(
    "call",
    [
        lambda: PatternTarget(word=(0, 1.5)),
        lambda: PatternTarget(word=("1", 0)),
        lambda: PatternTarget(word=(True, 0)),
        lambda: TargetScan(word=(1.5,)),
        lambda: MARKOV2.word_measure((0, 1.5)),
        lambda: consecutive_joint_pmf(MARKOV2, PatternTarget(word=(0, 1)), [2.5]),
        lambda: return_excess(MARKOV2, PatternTarget(word=(0, 1)), [1.7]),
        lambda: block_set_return_pmf(MARKOV2, [(0, 1.5)], 8),
    ],
    ids=["word-float", "word-str", "word-bool", "scan-word", "word-measure",
         "joint-gap", "excess-k", "block-encode"],
)
def test_non_integral_inputs_refused(call):
    with pytest.raises(ValidationError):
        call()


def test_integral_numbers_accepted():
    assert PatternTarget(word=(0, 1.0)).word == (0, 1)
    assert PatternTarget(word=np.array([0, 1])).word == (0, 1)
    assert TargetScan(word=(1.0,)).word == (1,)
    assert MARKOV2.word_measure((0, 1.0)) == MARKOV2.word_measure((0, 1))
    t = PatternTarget(word=(0, 1))
    assert consecutive_joint_pmf(MARKOV2, t, [2.0]) == consecutive_joint_pmf(MARKOV2, t, [2])
    assert np.array_equal(return_excess(MARKOV2, t, [1.0]), return_excess(MARKOV2, t, [1]))
    (got, _), (want, _) = (block_set_return_pmf(MARKOV2, [w], 8) for w in [(0, 1.0), (0, 1)])
    assert np.array_equal(got.masses, want.masses)


_WORD01 = PatternTarget(word=(0, 1))
_SIZE_CALLS = {
    "block-hitting": lambda k: block_hitting_pmf(MARKOV2, _WORD01, k).masses,
    "block-return": lambda k: block_return_pmf(MARKOV2, _WORD01, k).masses,
    "block-set-return": lambda k: block_set_return_pmf(MARKOV2, [(0, 1)], k)[0].masses,
    "hitting": lambda k: hitting_pmf(MARKOV2, _WORD01, "stationary", k).masses,
    "shift-j": lambda k: verify_shift_identity_grid(
        MARKOV2, _WORD01, return_pmf(MARKOV2, _WORD01, 16), k, 4)[0],
    "shift-m": lambda k: verify_shift_identity_grid(
        MARKOV2, _WORD01, return_pmf(MARKOV2, _WORD01, 16), 4, k)[0],
    "block-chain": lambda k: BlockChain(MARKOV2, k).stationary_blocks(),
    "counterexample-k-prune": lambda k: counterexample_pruned_target(
        MARKOV2, _WORD01, k).mu_b,
}


@pytest.mark.parametrize("size", [0, -5, 2.5, True, "3"], ids=["zero", "negative", "fraction",
                                                              "bool", "str"])
@pytest.mark.parametrize("call", _SIZE_CALLS.values(), ids=_SIZE_CALLS.keys())
def test_exact_sizes_refused(call, size):
    # one refusal for every integer size of the exact layer, as the rest of
    # the library refuses fractions: an empty law at 0 and a bare TypeError
    # at 2.5 were the old answers of the block laws
    with pytest.raises(ValidationError, match="must be >= 1, as integers"):
        call(size)


@pytest.mark.parametrize("call", _SIZE_CALLS.values(), ids=_SIZE_CALLS.keys())
def test_integral_float_sizes_accepted(call):
    assert np.array_equal(call(4.0), call(4))


def test_block_targets_encode_words_in_reading_order():
    # MARKOV3 is not reversible, so a word read backwards is another target
    words = [(0, 1, 2), (0, 0, 2), (1, 2, 2)]
    assert MARKOV3.word_measure((0, 1, 2)) != MARKOV3.word_measure((2, 1, 0))
    target = PatternTarget(word=words[0])
    want = hitting_pmf(MARKOV3, target, "stationary", 16).masses
    _assert_rtol_zeros_exact(block_hitting_pmf(MARKOV3, target, 16).masses, want, 1e-12)
    _, mu = block_set_return_pmf(MARKOV3, words, 4)
    assert mu == pytest.approx(math.fsum(MARKOV3.word_measure(w) for w in words), rel=1e-15)


def test_block_symbol_refusal_names_the_word():
    with pytest.raises(ValidationError, match=r"got \(1, 2\)$"):
        block_set_return_pmf(MARKOV2, [(0, 1), (1, 0), (1, 2), (0, 0)], 8)
    with pytest.raises(ValidationError, match=r"got \(0, True\)$"):
        block_set_return_pmf(MARKOV2, [(0, 1), (0, True)], 8)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_array_words_are_the_list_words(dtype):
    words = [(0, 1, 2), (0, 0, 2), (1, 2, 2), (0, 1, 2)]
    (want, want_mu), (got, got_mu) = (
        block_set_return_pmf(MARKOV3, w, 40) for w in (words, np.array(words, dtype=dtype)))
    assert np.array_equal(got.masses, want.masses) and got.tail == want.tail
    assert got_mu == want_mu


@pytest.mark.parametrize(
    "words,message",
    [(np.array([[0, 1], [1, 2], [0, 0]]), r"word symbols must lie in \[0, 2\), as integers; got \(1, 2\)$"),
     (np.array([[0, -1]]), r"got \(0, -1\)$"),
     (np.array([[0, 1], [0, True]], dtype=bool), r"got \(False, True\)$"),
     (np.array([[0, 1.5]]), r"got \(0.0, 1.5\)$"),
     (np.empty((0, 2), dtype=np.int64), "word set must be nonempty$"),
     (np.array([0, 1]), "all words in a block target must have equal length$"),
     (np.zeros((1, 2, 2), dtype=np.int64), "all words in a block target must have equal length$")],
    ids=["out-of-range", "negative", "bool", "fraction", "empty", "1-d", "3-d"],
)
def test_array_words_refused_as_lists_are(words, message):
    with pytest.raises(ValidationError, match=message):
        block_set_return_pmf(MARKOV2, words, 8)


def test_integral_float_array_words_accepted():
    (got, _), (want, _) = (block_set_return_pmf(MARKOV2, w, 8)
                           for w in (np.array([[0, 1.0]]), [(0, 1)]))
    assert np.array_equal(got.masses, want.masses)


class TestProductChain:
    def test_reachable_pair_count(self):
        chain = ProductChain(FAIR, PatternTarget(word=(1, 1)))
        assert chain.n_states <= 3 * 2
        assert chain.n_states == 4

    def test_single_symbol_target_set(self):
        # states (0, 0), (0, 1) and the full match (1, 1), last: every state
        # enters the full match on a 1 and (0, 0) on a 0
        chain = ProductChain(FAIR, PatternTarget(word=(1,)))
        assert chain.n_states == 3
        assert np.array_equal(chain.kernel, np.tile([0.5, 0.0, 0.5], (3, 1)))
        assert np.array_equal(chain.into_match, [0.5, 0.5, 0.5])
        assert np.array_equal(chain.entry_vector(), [0.0, 0.0, 1.0])
        assert np.array_equal(chain.stationary_vector(), [0.5, 0.5, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_kernel_equals_the_dict_built_kernel(self, s_count, data):
        # bordered words included: a random word, or a random period repeated
        p = np.array(data.draw(st.lists(
            st.lists(st.floats(0.05, 1.0), min_size=s_count, max_size=s_count),
            min_size=s_count, max_size=s_count)))
        source = MarkovSource.from_transitions(p / p.sum(axis=1, keepdims=True))
        l = data.draw(st.integers(1, 12))
        period = data.draw(st.integers(1, l))
        base = data.draw(st.lists(st.integers(0, s_count - 1), min_size=period, max_size=period))
        target = PatternTarget(word=tuple(base[i % period] for i in range(l)))
        chain = ProductChain(source, target)
        kernel = dict_product_kernel(source, target)
        assert np.array_equal(chain.kernel, kernel)
        want_survive = kernel.copy()
        want_survive[:, -1] = 0.0
        assert np.array_equal(chain.survive, want_survive)
        assert np.array_equal(chain.into_match, kernel[:, -1])

    def test_geometric_law_word_one(self):
        pmf = hitting_pmf(FAIR, PatternTarget(word=(1,)), "stationary", 20)
        for k in range(1, 21):
            assert pmf.mass_at(k) == pytest.approx(2.0**-k, abs=1e-15)

    def test_horizon_over_budget_refused_before_allocating(self):
        # 2^40 steps of 42 states would be 2^40 * 8 bytes of masses alone
        with pytest.raises(BudgetExceededError, match="budget"):
            hitting_pmf(FAIR, PatternTarget(word=(0,) * 40), "stationary", 2**40)
        # the tuple law reads its legs in closed form and allocates no law:
        # the mass at 2^40 is about e^(-2^31), an underflow, not a zero
        with pytest.raises(ProbabilityUnderflowError):
            consecutive_joint_pmf(FAIR, PatternTarget(word=(0,) * 8), [2**40])

    def test_survive_plus_match_is_stochastic(self):
        chain = ProductChain(MARKOV2, PatternTarget(word=(1, 0, 1)))
        rows = chain.survive.sum(axis=1) + chain.into_match
        assert np.allclose(rows, 1.0, atol=1e-14)
        assert np.allclose(chain.kernel.sum(axis=1), 1.0, atol=1e-14)

    def test_zero_measure_target_rejected_for_conditioning(self):
        # transition 1 -> 1 impossible, so the cylinder [1,1] has measure zero
        src = MarkovSource.from_transitions([[0.5, 0.5], [1.0, 0.0]])
        target = PatternTarget(word=(1, 1))
        with pytest.raises(ValidationError):
            return_pmf(src, target, 8)
        with pytest.raises(ValidationError):
            theta_exact(src, target)
        # the stationary hitting law is still fine: it just never hits
        pmf = hitting_pmf(src, target, "stationary", 32)
        assert float(np.sum(pmf.masses)) == 0.0
        assert pmf.tail == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "initial",
        ["uniform", "escaping", np.full(4, 0.25), [0.25, 0.25, 0.25, 0.25]],
        ids=["name", "escaping", "vector", "list"],
    )
    def test_unknown_initial_rejected(self, initial):
        # a start vector is no longer a starting law: it is refused like a bad name
        with pytest.raises(ValidationError, match="unknown initial distribution"):
            hitting_pmf(FAIR, PatternTarget(word=(1, 1)), initial, 4)


WORDS_BY_SOURCE = [
    (FAIR, (1,)),
    (FAIR, (1, 1)),
    (FAIR, (0, 1, 0)),
    (FAIR, (0, 1, 1, 0)),
    (BIASED, (0, 1)),
    (BIASED, (0, 1, 0)),
    (MARKOV2, (1, 0, 1)),
    (MARKOV3, (0, 1, 0)),
    (MARKOV3, (2, 2)),
]


class TestAgainstEnumeration:
    @pytest.mark.parametrize("source,word", WORDS_BY_SOURCE)
    def test_hitting_matches_brute_force(self, source, word):
        k_max = 10 if source.alphabet_size == 2 else 7
        pmf = hitting_pmf(source, PatternTarget(word=word), "stationary", k_max)
        brute = brute_hitting_masses(source.transitions, source.stationary, word, k_max)
        assert np.max(np.abs(pmf.masses - brute)) < 1e-12

    @pytest.mark.parametrize("source,word", WORDS_BY_SOURCE)
    def test_return_matches_brute_force(self, source, word):
        k_max = 10 if source.alphabet_size == 2 else 7
        pmf = return_pmf(source, PatternTarget(word=word), k_max)
        brute = brute_return_masses(source.transitions, source.stationary, word, k_max)
        assert np.max(np.abs(pmf.masses - brute)) < 1e-12

    @pytest.mark.parametrize("source,word", WORDS_BY_SOURCE)
    def test_block_chain_agrees_with_automaton(self, source, word):
        k_max = 12
        target = PatternTarget(word=word)
        hit_a = hitting_pmf(source, target, "stationary", k_max)
        hit_b = block_hitting_pmf(source, target, k_max)
        assert np.max(np.abs(hit_a.masses - hit_b.masses)) < 1e-12
        ret_a = return_pmf(source, target, k_max)
        ret_b = block_return_pmf(source, target, k_max)
        assert np.max(np.abs(ret_a.masses - ret_b.masses)) < 1e-12


class TestPMFInvariants:
    @pytest.mark.parametrize("source,word", WORDS_BY_SOURCE)
    def test_mass_balance(self, source, word):
        pmf = hitting_pmf(source, PatternTarget(word=word), "stationary", 256)
        assert abs(pmf.total() - 1.0) < 1e-10
        ret = return_pmf(source, PatternTarget(word=word), 256)
        assert abs(ret.total() - 1.0) < 1e-10

    @pytest.mark.parametrize("source,word", WORDS_BY_SOURCE)
    def test_stationary_hitting_monotone(self, source, word):
        pmf = hitting_pmf(source, PatternTarget(word=word), "stationary", 200)
        diffs = np.diff(pmf.masses)
        assert np.max(diffs) <= 1e-14

    @pytest.mark.parametrize(
        "source,word",
        [(FAIR, (1, 1)), (FAIR, (0, 1, 1, 0)), (BIASED, (0, 1)), (MARKOV2, (1, 0, 1))],
    )
    def test_kac_formula(self, source, word):
        mu = source.word_measure(word)
        k_max = int(60 / mu)
        ret = return_pmf(source, PatternTarget(word=word), k_max)
        assert ret.tail < 1e-10
        assert ret.expectation() == pytest.approx(1.0 / mu, abs=1e-8)

    def test_drift_guard_is_quiet_at_large_kmax(self):
        # 2^16 steps, blocked and summed with math.fsum, stay within tolerance
        pmf = return_pmf(FAIR, PatternTarget(word=(1, 1)), 2**16)
        assert abs(pmf.total() - 1.0) < 1e-10

    def test_closing_tail_refuses_drift_and_clamps_rounding(self):
        masses = np.full(4, 0.25)  # sums to 1 exactly
        with pytest.raises(NumericalDriftError, match="drifted past tolerance"):
            _closing_tail(1.0 - 2 * _MASS_DRIFT_TOL, masses)
        assert _closing_tail(1.0 - 0.5 * _MASS_DRIFT_TOL, masses) == 0.0
        assert _closing_tail(1.25, masses) == 0.25

    def test_closing_tail_is_start_mass_less_fsum(self):
        # the tail is 1 less the exactly rounded sum, over 16 387 masses and none
        masses = np.random.default_rng(5).random(16387) * 2.0**-20
        assert _closing_tail(1.0, masses) == 1.0 - math.fsum(masses.tolist())
        assert _closing_tail(1.0, masses[:0]) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_exact_sum_refuses_what_it_cannot_extract(self, bad):
        values = np.zeros(8197)
        values[-1] = bad
        with pytest.raises(NumericalDriftError, match="cannot sum"):
            _exact_sum(values)
        with pytest.raises(NumericalDriftError):
            _closing_tail(1.0, np.array([0.5, bad]))
        with pytest.raises(NumericalDriftError, match="cannot sum"):
            _exact_sum(np.zeros(3), bad)
        with pytest.raises(NumericalDriftError, match="tail="):
            _closing_tail(bad, np.array([0.5]))
        with pytest.raises(NumericalDriftError):
            ExactPMF(1, values, 0.0).total()

    @pytest.mark.parametrize(
        "masses,shape", [(np.array([[0.25, 0.5]]), r"\(1, 2\)"), (np.float64(0.5), r"\(\)")],
        ids=["2-D", "0-d"],
    )
    def test_masses_that_are_not_1d_refused(self, masses, shape):
        # a 2-D array used to reach the memoryview's NotImplementedError, a 0-d one a TypeError
        with pytest.raises(ValidationError, match=f"masses must be 1-D, got shape {shape}"):
            ExactPMF(1, masses, 0.25)

    def test_exact_sum_refuses_opposite_infinities(self):
        # fsum's own ValueError for inf - inf becomes a NumericalDriftError
        with pytest.raises(NumericalDriftError, match="cannot sum"):
            _exact_sum(np.array([np.inf, 1.0, -np.inf]))
        with pytest.raises(NumericalDriftError, match="cannot sum"):
            _exact_sum(np.array([np.inf]), -np.inf)

    def test_exact_sum_takes_finite_values_of_any_size(self):
        values = np.array([2.0**1009, -(2.0**1009), 1.0])
        assert _exact_sum(values) == 1.0
        assert ExactPMF(1, values, 0.0).total() == 1.0
        assert _exact_sum(np.array([1e308])) == 1e308
        assert ExactPMF(1, np.array([1e308]), 0.0).total() == 1e308
        assert _exact_sum(np.zeros(3), 1e308) == 1e308
        # a sum past the float range is refused, not rounded to infinity
        with pytest.raises(NumericalDriftError, match="overflow"):
            _exact_sum(np.full(2, 1.7e308))

    def test_exact_sum_takes_values_near_the_float_range(self):
        top = np.finfo(float).max
        values = np.array([top, -top, top, 5e-324, -2.0**-1000])
        assert _exact_sum(values) == math.fsum(values.tolist())
        assert _exact_sum(values, -top) == math.fsum([*values.tolist(), -top])
        # where fsum itself overflows, the refusal is a NumericalDriftError
        with pytest.raises(NumericalDriftError, match="overflow"):
            _exact_sum(np.full(2**17, top))

    def test_exact_sum_reads_strided_values(self):
        rng = np.random.default_rng(7)
        mantissas = rng.choice([-1.0, 1.0], 8193) * rng.random(8193)
        values = np.ldexp(mantissas, rng.integers(-1074, 0, 8193))
        assert _exact_sum(values[::2]) == math.fsum(values[::2].tolist())
        assert _exact_sum(values[::-3], 0.25) == math.fsum([*values[::-3].tolist(), 0.25])

    def test_exact_pmf_sums_keep_fsum_bits(self):
        # 16 391 masses, down to subnormals and exact zeros
        law = return_pmf(MARKOV3, PatternTarget(word=(0, 1, 2)), 2 * 8192 + 7)
        assert law.masses[-1] < 1e-300
        terms = law.masses.tolist()
        values = np.arange(1, law.masses.size + 1)
        assert law.expectation() == math.fsum((values * law.masses).tolist())
        for law in (law, ExactPMF(1, law.masses, 0.1)):  # the second with a tail
            assert law.total() == math.fsum([*terms, law.tail])
            for k in (1, 2, 8192, 8193, law.masses.size, law.masses.size + 3):
                assert law.survival(k) == math.fsum([*terms[k - 1 :], law.tail])


_SUM_LENGTHS = [0, 1, 2, 3, 17, 8191, 8192, 8193, 16387]
# a bound that keeps every test sum clear of fsum's own overflow
_SUM_FLOATS = st.floats(-(2.0**990), 2.0**990, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    length=st.sampled_from(_SUM_LENGTHS),
    pool=st.lists(_SUM_FLOATS, min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
    signs=st.sampled_from(["kept", "mixed", "cancelling"]),
)
def test_exact_sum_is_fsum(length, pool, seed, signs):
    """`_exact_sum` == math.fsum(x.tolist()) bit for bit: empty, all-zero,
    mixed-sign, subnormal and 2^-1074..2^990 inputs, short and long."""
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array(pool), length)
    if signs == "mixed":
        x *= rng.choice([-1.0, 1.0], length)
    elif signs == "cancelling":
        x[length // 2 :] = -x[: length - length // 2][::-1]
    want = math.fsum(x.tolist())
    got = _exact_sum(x)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    assert _exact_sum(x, *pool[:3]) == math.fsum([*x.tolist(), *pool[:3]])


@pytest.mark.parametrize(
    "pool",
    [[0.0], [-0.0, 0.0], [5e-324, -5e-324, 2.0**-1022], [1.0, 2.0**-1074, -(2.0**-600)],
     [2.0**990, 1.0, -(2.0**990), 2.0**-1074]],
    ids=["zeros", "signed-zeros", "subnormals", "wide-span", "cancelling-extremes"],
)
@pytest.mark.parametrize("length", _SUM_LENGTHS)
def test_exact_sum_edge_pools(pool, length):
    x = np.resize(np.array(pool), length)
    assert _exact_sum(x) == math.fsum(x.tolist())


def _shift_cell(source, word, j, m):
    """Both sides of the j-shift identity at (j, m): cell [j-1, m-1] of the grid."""
    target = PatternTarget(word=word)
    ret = return_pmf(source, target, j + m - 1)
    lhs, rhs = verify_shift_identity_grid(source, target, ret, j, m)
    return float(lhs[j - 1, m - 1]), float(rhs[j - 1, m - 1])


def _inducing_residual(source, word, k_max, extra=0):
    """The inducing identity over 1..k_max, from the hitting law at k_max and
    the return law ``extra`` steps past it."""
    target = PatternTarget(word=word)
    hit = hitting_pmf(source, target, "stationary", k_max)
    ret = return_pmf(source, target, k_max + extra)
    return verify_inducing_identity(hit, ret, source.word_measure(word))


IDENTITY_WORDS = [
    (FAIR, (1,)), (FAIR, (1, 1)), (FAIR, (0, 1, 0)), (FAIR, (0, 1, 1, 0)),
    (BIASED, (0, 1)), (MARKOV2, (1, 0, 1)),
]


class TestIdentities:
    @pytest.mark.parametrize("source,word", IDENTITY_WORDS)
    def test_inducing_identity(self, source, word):
        worst = _inducing_residual(source, word, 256)
        assert worst < 1e-12

    def test_identities_reject_laws_shorter_than_their_horizon(self):
        target = PatternTarget(word=(1, 1))
        hit = hitting_pmf(FAIR, target, "stationary", 16)
        ret = return_pmf(FAIR, target, 16)
        # the inducing check covers every k of the hitting law
        with pytest.raises(ValidationError, match="return law must cover 1..17"):
            verify_inducing_identity(hitting_pmf(FAIR, target, "stationary", 17), ret, 0.25)
        with pytest.raises(ValidationError, match="return law must cover 1..16"):
            verify_inducing_identity(hit, ExactPMF(2, ret.masses, ret.tail), 0.25)
        with pytest.raises(ValidationError, match="hitting law must cover 1..1"):
            verify_inducing_identity(ExactPMF(1, np.zeros(0), 1.0), ret, 0.25)
        with pytest.raises(ValidationError, match="return law must cover 1..17"):
            verify_shift_identity_grid(FAIR, target, ret, 8, 10)
        # a longer law serves a shorter horizon
        assert verify_inducing_identity(hit, return_pmf(FAIR, target, 17), 0.25) < 1e-15
        lhs, rhs = verify_shift_identity_grid(FAIR, target, ret, 8, 9)
        assert np.max(np.abs(lhs - rhs)) < 1e-15

    def test_shift_split_over_budget_refused_before_stepping(self):
        # 72 * (2^24 + 3) ~ 1.21e9 state updates of the 12-state split chain;
        # np.zeros maps its pages lazily, so the law costs no memory
        law = ExactPMF(1, np.zeros(2**24), 0.0)
        with pytest.raises(BudgetExceededError, match="budget"):
            verify_shift_identity_grid(MARKOV3, PatternTarget(word=(0, 1, 2)), law, 2**24, 1)

    @pytest.mark.parametrize("k", [1, 33, 64])
    def test_inducing_identity_reads_every_k_of_the_hitting_law(self, k):
        # the horizon is the hitting law's length, so a defect at any of its k shows
        target = PatternTarget(word=(1, 0, 1))
        hit = hitting_pmf(MARKOV2, target, "stationary", 64)
        ret = return_pmf(MARKOV2, target, 64)
        masses = hit.masses.copy()
        masses[k - 1] += 1e-6
        got = verify_inducing_identity(
            ExactPMF(1, masses, hit.tail), ret, MARKOV2.word_measure(target.word))
        assert got == pytest.approx(1e-6, rel=1e-6)

    def test_inducing_identity_k1_is_mu_a(self):
        # at k = 1 both sides equal mu(A)
        pmf = hitting_pmf(FAIR, PatternTarget(word=(1, 1)), "stationary", 1)
        assert pmf.mass_at(1) == pytest.approx(0.25, abs=1e-15)

    def test_inducing_identity_spec_value(self):
        # fair bits, word 11, k=2: both sides 1/8
        pmf = hitting_pmf(FAIR, PatternTarget(word=(1, 1)), "stationary", 2)
        assert pmf.mass_at(2) == pytest.approx(1.0 / 8.0, abs=1e-15)
        ret = return_pmf(FAIR, PatternTarget(word=(1, 1)), 2)
        rhs = 0.25 * (1.0 - ret.mass_at(1))
        assert rhs == pytest.approx(1.0 / 8.0, abs=1e-15)

    @pytest.mark.parametrize("j,m", [(1, 1), (2, 3), (3, 2), (5, 8), (8, 5)])
    @pytest.mark.parametrize(
        "source,word", [(FAIR, (1,)), (FAIR, (0, 1, 0)), (BIASED, (0, 1)), (MARKOV2, (1, 1))]
    )
    def test_shift_identity_both_sides_equal(self, source, word, j, m):
        lhs, rhs = _shift_cell(source, word, j, m)
        assert lhs == pytest.approx(rhs, abs=1e-13)

    @pytest.mark.parametrize("j,m", [(1, 1), (3, 2), (2, 4)])
    def test_shift_identity_against_enumeration(self, j, m):
        word = (0, 1, 0)
        lhs, rhs = _shift_cell(FAIR, word, j, m)
        brute = brute_shift_identity_lhs(FAIR.transitions, FAIR.stationary, word, j, m)
        assert lhs == pytest.approx(brute, abs=1e-13)
        assert rhs == pytest.approx(brute, abs=1e-13)

    def test_shift_identity_trivial_case(self):
        # j=1, m=1, word "1": both sides mu(A n {phi=1}) = 1/4
        lhs, rhs = _shift_cell(FAIR, (1,), 1, 1)
        assert lhs == pytest.approx(0.25, abs=1e-14)
        assert rhs == pytest.approx(0.25, abs=1e-14)

    def test_shift_identity_zero_beyond_support(self):
        # word 11: return mass at 2 is zero, so j=1, m=2 has both sides 0
        lhs, rhs = _shift_cell(FAIR, (1, 1), 1, 2)
        assert lhs == 0.0
        assert rhs == 0.0

    @pytest.mark.parametrize("source", [FAIR, BIASED, MARKOV2])
    def test_discrete_integral_relation(self, source):
        # mu(phi_A > K) = mu(A) * sum_{k > K} mu_A(phi_A >= k)
        word = (0, 1)
        mu = source.word_measure(word)
        k_max = 512
        hit = hitting_pmf(source, PatternTarget(word=word), "stationary", k_max)
        ret = return_pmf(source, PatternTarget(word=word), k_max)
        for big_k in (1, 5, 50, 256):
            lhs = 1.0 - math.fsum(float(x) for x in hit.masses[:big_k])
            rhs = mu * math.fsum(ret.survival(k) for k in range(big_k + 1, k_max + 1))
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestReturnExcess:
    """E[(R - K)^+] from the GTH fundamental-matrix solve."""

    @pytest.mark.parametrize("source,word", IDENTITY_WORDS)
    def test_matches_truncated_return_law(self, source, word):
        # every return tail here is below e^-100 by the horizon, so the
        # survival of the truncated law sums to the untruncated excess
        target = PatternTarget(word=word)
        horizon = 2048
        ret = return_pmf(source, target, horizon)
        surv = [math.fsum(ret.masses[j:]) for j in range(horizon)]  # P(R > j)
        ks = [0, 1, 3, 16, 64]
        got = return_excess(source, target, ks)
        for k, value in zip(ks, got):
            want = math.fsum(surv[k:])
            assert abs(value - want) <= 1e-12 * want

    @pytest.mark.parametrize(
        "source,word",
        [(BIASED, (0,) * 20), (BIASED, (0, 1) * 12), (MARKOV3, (0, 1, 2) * 6)],
    )
    def test_kac_for_rare_words(self, source, word):
        # mu(0^20) = 3.49e-11: cond(I - Q) ~ 1/mu, so a plain linear solve
        # misses Kac's E[R] = 1/mu by far more than 1e-12 relative
        mu = source.word_measure(word)
        (mean,) = return_excess(source, PatternTarget(word=word), [0])
        assert abs(mean * mu - 1.0) <= 1e-12

    def test_zero_measure_word_rejected_like_return_law(self):
        source = MarkovSource.from_transitions([[0.0, 1.0], [0.5, 0.5]])
        target = PatternTarget(word=(0, 0))
        with pytest.raises(ValidationError) as want:
            hitting_pmf(source, target, "in_target", 4)
        with pytest.raises(ValidationError) as got:
            return_excess(source, target, [0])
        assert str(got.value) == str(want.value)

    def test_negative_k_rejected(self):
        with pytest.raises(ValidationError, match="ks must be >= 0"):
            return_excess(FAIR, PatternTarget(word=(1,)), [0, -1])


def _assert_rtol_zeros_exact(got, want, rtol=1e-14):
    zero = want == 0.0
    np.testing.assert_array_equal(got == 0.0, zero)
    rel = np.abs(got[~zero] - want[~zero]) / want[~zero]
    assert rel.max(initial=0.0) <= rtol


def _assert_matches_stepwise(source, target, initial, k_max):
    """Blocked masses within 1e-12 relative of the step loop, zeros exact, tails 1e-12."""
    pmf = hitting_pmf(source, target, initial, k_max)
    masses, tail = stepwise_hitting_masses(source, target, initial, k_max)
    _assert_rtol_zeros_exact(pmf.masses, masses, 1e-12)
    assert abs(pmf.tail - max(tail, 0.0)) <= 1e-12


class TestBlockedKernel:
    """`_absorption_series` against the one-matvec-per-step iteration."""

    TARGET = PatternTarget(word=(0, 1, 2, 0, 1))

    @pytest.mark.parametrize("k_max", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7])
    @pytest.mark.parametrize("initial", ["stationary", "in_target"])
    def test_matches_stepwise(self, initial, k_max):
        _assert_matches_stepwise(MARKOV3, self.TARGET, initial, k_max)

    @pytest.mark.parametrize("k_max", [2, 3])
    @pytest.mark.parametrize("initial", ["stationary", "in_target"])
    def test_within_the_period(self, initial, k_max):
        # laws no longer than the period p = 3: the in-target start has exact
        # zeros before p and the whole law sits in one short block
        _assert_matches_stepwise(MARKOV3, self.TARGET, initial, k_max)

    @pytest.mark.parametrize("initial", ["stationary", "in_target"])
    def test_deep_tail(self, initial):
        source = MarkovSource.from_transitions(
            [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
        )
        target = PatternTarget(word=(0, 1, 2, 0, 1, 2))
        _assert_matches_stepwise(source, target, initial, 65536)

    @pytest.mark.parametrize("k_max", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7])
    def test_arbitrary_start_row_matches_stepwise(self, k_max):
        # the kernel takes any nonnegative row, not only the two starting laws
        chain = ProductChain(MARKOV3, self.TARGET)
        v = np.random.default_rng(7).random(chain.n_states)
        v /= v.sum()
        got = _absorption_series(chain.survive, chain.into_match, v, k_max)
        want = np.empty(k_max)
        for m in range(k_max):
            want[m] = v @ chain.into_match
            v = v @ chain.survive
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_stacked_rows_match_single_rows(self):
        chain = ProductChain(MARKOV3, self.TARGET)
        rows = np.random.default_rng(3).random((4, chain.n_states))
        stacked = _absorption_series(chain.survive, chain.into_match, rows, 2 * _BLOCK + 7)
        for row, got in zip(rows, stacked):
            want = _absorption_series(chain.survive, chain.into_match, row, 2 * _BLOCK + 7)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("source,word", [(FAIR, (0, 1, 0)), (MARKOV2, (1, 0, 1))])
    def test_shift_grid_matches_single_cells(self, source, word):
        target = PatternTarget(word=word)
        lhs, rhs = verify_shift_identity_grid(source, target, return_pmf(source, target, 12), 5, 8)
        assert lhs.shape == rhs.shape == (5, 8)
        assert np.max(np.abs(lhs - rhs)) < 1e-13
        for j in range(1, 6):
            for m in range(1, 9):
                cell = _shift_cell(source, word, j, m)
                assert cell[0] == pytest.approx(lhs[j - 1, m - 1], abs=1e-15)
                assert cell[1] == pytest.approx(rhs[j - 1, m - 1], abs=1e-15)


def _assert_steps_within_scatter_bound(chain, v, steps):
    """``steps`` steps from ``v`` against the scatter in long double: every
    entry within 2 S k 2^-53 relative after k steps, zeros exact."""
    ref = v.astype(np.longdouble)
    for k in range(1, steps + 1):
        v = chain.step(v)
        ref = scatter_block_step(chain, ref)
        _assert_rtol_zeros_exact(v, ref, 2 * chain.source.alphabet_size * k * 2.0**-53)


def _longdouble_scatter_step(chain, v):
    return scatter_block_step(chain, v.astype(np.longdouble))


class TestBlockStep:
    """`BlockChain.step` against the scatter step it replaced: within a stated
    bound of the scatter in long double, and bit for bit where no rounding
    moved (rank 1, where each output is the scatter's sum of products, and the
    fair coin, whose transitions of 1/2 scale exactly)."""

    @pytest.mark.parametrize(
        "source,rank,steps",
        [(MARKOV2, 1, 40), (MARKOV2, 2, 40), (MARKOV2, 5, 40), (MARKOV3, 1, 40), (MARKOV3, 6, 40),
         (MARKOV4, 1, 40), (MARKOV4, 3, 40), (FAIR, 16, 3), (MARKOV3, 10, 3), (MARKOV3, 4, 512)],
    )
    def test_step_matches_scatter(self, source, rank, steps):
        # rank 1 is where a predecessor's last symbol is the dropped one; the
        # 4-symbol source sums four dropped symbols per output, the 2^16 and
        # 3^10 chains are those of the block benchmark, and the last shape
        # holds the bound's growth in k over 512 steps
        chain = BlockChain(source, rank)
        _assert_steps_within_scatter_bound(chain, chain.stationary_blocks(), steps)

    @pytest.mark.parametrize(
        "source,rank",
        [(FAIR, r) for r in (1, 2, 3, 5, 8, 16)] + [(MARKOV2, 1), (MARKOV3, 1), (MARKOV4, 1)],
    )
    def test_step_is_the_scatter_on_the_fair_coin_and_at_rank_1(self, source, rank):
        chain = BlockChain(source, rank)
        v = chain.stationary_blocks()
        v[::3] = 0.0  # a start off the stationary law, with zeros
        want = v.copy()
        for _ in range(3 if rank == 16 else 40):
            v = chain.step(v)
            want = scatter_block_step(chain, want)
            assert np.array_equal(v, want)

    @settings(max_examples=40, deadline=None)
    @given(small_markov_sources(max_symbols=4), st.integers(1, 5), st.integers(1, 30),
           st.integers(0, 2**32 - 1))
    def test_step_within_bound_randomized(self, source, rank, steps, seed):
        chain = BlockChain(source, rank)
        v = chain.stationary_blocks()
        v[np.random.default_rng(seed).random(v.size) < 0.3] = 0.0
        _assert_steps_within_scatter_bound(chain, v, steps)

    @pytest.mark.parametrize(
        "source,word",
        [(MARKOV2, (1,)), (MARKOV2, (1, 0)), (MARKOV2, (1, 0, 1, 1, 0)), (MARKOV3, (2,)),
         (MARKOV3, (0, 1, 2, 0, 1, 2)), (FAIR, (0, 0, 1, 1))],
    )
    def test_block_laws_match_scatter(self, source, word, monkeypatch):
        # masses within 1e-14 relative of the laws the scatter gives in long
        # double, zeros exact; bit for bit on the fair coin and at rank 1. By
        # k = 512 the 2-state return law of (1,) reaches subnormal masses,
        # which the long-double run holds unrounded
        # (the references are the S^r loop stepped by the scatter)
        target = PatternTarget(word=word)
        words = [word, tuple(reversed(word))]
        got = [
            block_hitting_pmf(source, target, 512),
            block_return_pmf(source, target, 512),
            block_set_return_pmf(source, words, 512)[0],
        ]

        def references():
            return [full_vector_block_pmf(source, w, 512, inside)[0]
                    for w, inside in (([word], False), ([word], True), (words, True))]

        monkeypatch.setattr(BlockChain, "step", _longdouble_scatter_step)
        tiny = np.finfo(float).tiny  # below it a double holds only absolute precision
        for new, ref in zip(got, references()):
            np.testing.assert_array_equal(new.masses == 0.0, ref.masses == 0.0)
            assert np.all(np.abs(new.masses - ref.masses) <= 1e-14 * np.maximum(ref.masses, tiny))
            assert new.tail == pytest.approx(ref.tail, rel=0, abs=1e-14)
        if source is FAIR or len(word) == 1:
            monkeypatch.setattr(BlockChain, "step", scatter_block_step)
            for new, old in zip(got, references()):
                assert np.array_equal(new.masses, old.masses)
                assert new.tail == old.tail

    def test_out_of_range_symbols_refused(self):
        # such symbols used to alias other blocks: (0, 2) encoded as (1, 0)
        for words in ([(0, 2)], [(0, -1)], [(5, 5)], [(0, 1), (1, 2)]):
            with pytest.raises(ValidationError, match=r"word symbols must lie in \[0, 2\)"):
                block_set_return_pmf(MARKOV2, words, 8)
        for law in (block_return_pmf, block_hitting_pmf, return_pmf):
            with pytest.raises(ValidationError, match=r"word symbols must lie in \[0, 2\)"):
                law(MARKOV2, PatternTarget(word=(0, 2)), 8)


_ROWS9 = np.random.default_rng(9).uniform(0.05, 1.0, (9, 9))
MARKOV9 = MarkovSource.from_transitions(_ROWS9 / _ROWS9.sum(axis=1, keepdims=True))
# the source and counterexample set of the block benchmark: word 012, k_prune 7
BENCH_MARKOV3 = MarkovSource.from_transitions([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])


def _longdouble_reference(source, words, k_max, from_inside):
    """`_block_pmf`'s law by the S^r loop, each step the scatter in long double."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BlockChain, "step", _longdouble_scatter_step)
        return full_vector_block_pmf(source, words, k_max, from_inside)[0]


def _assert_masses_within_step_bound(law, ref, s, lead):
    """Every mass within 2 S j 2^-53 relative of ``ref``, where j = k + lead
    is the chain step that absorbs the mass of k; zeros exact."""
    steps = np.arange(1, law.masses.size + 1) + lead
    tiny = np.finfo(float).tiny
    np.testing.assert_array_equal(law.masses == 0.0, ref.masses == 0.0)
    err = np.abs(law.masses - ref.masses)
    assert np.all(err <= 2 * s * steps * 2.0**-53 * np.maximum(ref.masses, tiny))


def _assert_same_law(source, words, k_max, from_inside):
    (got, got_mu), (want, want_mu) = (
        law(source, words, k_max, from_inside) for law in (_block_pmf, full_vector_block_pmf))
    assert np.array_equal(got.masses, want.masses)
    assert got.tail == want.tail and got_mu == want_mu


class TestBlockLawsOnTheMarginal:
    """The block laws carry the S^(r-1) marginal and read rank-r target
    blocks as its transitions. They are held to the S^r loop they replaced:
    bit for bit on the fair coin and at rank <= 2, within 2 S j 2^-53 of its
    long-double scatter run elsewhere (j the chain step), zeros exact."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 5, 8, 16])
    @pytest.mark.parametrize("from_inside", [True, False], ids=["return", "hitting"])
    def test_fair_coin_laws_are_the_full_vector_loop(self, rank, from_inside):
        # 0^(r-1)1 and 10^(r-2)1 block both predecessors of 0^(r-2)1
        words = [(0,) * (rank - 1) + (1,), (1,) * rank]
        if rank >= 2:
            words.append((1,) + (0,) * (rank - 2) + (1,))
        _assert_same_law(FAIR, words, 512 if rank == 16 else 200, from_inside)
        _assert_same_law(FAIR, words[:1], 64, from_inside)

    @pytest.mark.parametrize("source", [MARKOV2, MARKOV3, MARKOV4, MARKOV9],
                             ids=["2", "3", "4", "9"])
    @pytest.mark.parametrize("from_inside", [True, False], ids=["return", "hitting"])
    def test_rank_2_laws_are_the_full_vector_loop(self, source, from_inside):
        # every predecessor of symbol 1 blocked; S - 1 of symbol 0; one of the
        # last, alone too: with nine symbols that entry's eight kept terms
        # are where a reduce over one column would sum pairwise
        s = source.alphabet_size
        words = [(t, 1) for t in range(s)] + [(t, 0) for t in range(1, s)] + [(0, s - 1)]
        _assert_same_law(source, words, 200, from_inside)
        _assert_same_law(source, words[-1:], 200, from_inside)

    def test_counterexample_set_within_bound(self, monkeypatch):
        seen = []

        def spy(src, words, k_max):
            seen.append(words)
            return block_set_return_pmf(src, words, k_max)

        monkeypatch.setattr(reports, "block_set_return_pmf", spy)
        report = counterexample_pruned_target(BENCH_MARKOV3, PatternTarget(word=(0, 1, 2)), 7)
        (words,) = seen
        assert words.shape == (report.cylinders_kept, 10)
        law, mu = block_set_return_pmf(BENCH_MARKOV3, words, 512)
        assert law.masses[6] == 0.0 and mu == report.mu_b
        ref = _longdouble_reference(BENCH_MARKOV3, words.tolist(), 512, True)
        _assert_masses_within_step_bound(law, ref, 3, 0)

    @settings(max_examples=60, deadline=None)
    @given(small_markov_sources(max_symbols=3), st.integers(1, 5), st.data())
    def test_random_word_sets(self, source, rank, data):
        # a random set, plus the first `blocked` predecessors of one entry of
        # the next marginal: several, or all S of them
        s = source.alphabet_size
        codes = data.draw(st.lists(st.integers(0, s**rank - 1), min_size=1, max_size=8))
        if rank >= 2:
            fed = data.draw(st.integers(0, s ** (rank - 1) - 1))
            blocked = data.draw(st.integers(0, s))
            codes += [t * s ** (rank - 1) + fed for t in range(blocked)]
        words = [tuple(c // s ** (rank - 1 - i) % s for i in range(rank)) for c in codes]
        k_max = data.draw(st.integers(1, 40))
        from_inside = data.draw(st.booleans())
        if rank <= 2:
            _assert_same_law(source, words, k_max, from_inside)
        law, _ = _block_pmf(source, words, k_max, from_inside)
        ref = _longdouble_reference(source, words, k_max, from_inside)
        _assert_masses_within_step_bound(law, ref, s, 0 if from_inside else rank - 1)


class TestTheta:
    def test_fair_zeros_theta_half(self):
        for l in (3, 5, 10):
            t = PatternTarget(word=(0,) * l)
            assert theta_exact(FAIR, t) == pytest.approx(0.5, abs=1e-15)

    def test_biased_zeros(self):
        t = PatternTarget(word=(0, 0, 0, 0))
        assert theta_exact(BIASED, t) == pytest.approx(0.7, abs=1e-15)

    def test_zero_extension_mass_gives_theta_one(self):
        # chain where 1 -> 1 is impossible: the period-1 extension 11 of word
        # "1" has zero mass, and a one-symbol word has no border anyway
        src = MarkovSource.from_transitions([[0.5, 0.5], [1.0, 0.0]])
        t = PatternTarget(word=(1,))
        assert theta_exact(src, t) == pytest.approx(1.0, abs=1e-15)

    def test_in_target_truncated_below_period_stays_balanced(self):
        # k_max < p pushes the later returns into the tail, not out of existence
        t = PatternTarget(word=(0, 0, 0))
        pmf = hitting_pmf(FAIR, t, "in_target", 1)
        assert pmf.mass_at(1) == pytest.approx(0.5, abs=1e-15)
        assert pmf.tail == pytest.approx(0.5, abs=1e-15)
        assert abs(pmf.total() - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "source,word,period",
        [
            (FAIR, (0, 0, 0, 0), 1),
            (BIASED, (0, 0, 0, 0), 1),
            (FAIR, (0, 1, 0, 1, 0), 2),
            (MARKOV3, (0, 1, 2, 0, 1), 3),
            (MARKOV3, (0, 1, 2, 0, 1, 2), 3),
            (MARKOV3, (0, 0, 1, 0, 0), 3),
        ],
        ids=["fair-0000", "biased-0000", "fair-01010", "markov3-01201", "markov3-012012",
             "markov3-00100"],
    )
    def test_matches_first_return_mass_of_the_product_chain(self, source, word, period):
        # at the minimal period p no return comes before p, so the returns at
        # p are exactly A n T^-p A and theta = 1 - P_A(R = p)
        t = PatternTarget(word=word)
        assert t.minimal_period == period
        ret = return_pmf(source, t, period)
        assert math.fsum(ret.masses[: period - 1]) == 0.0
        assert abs(theta_exact(source, t) - (1.0 - ret.mass_at(period))) <= 1e-15

    def test_several_periods_use_the_minimal_one(self):
        # 0000001000000 has periods 7..12 below l = 13; the least is 7
        t = PatternTarget(word=(0,) * 6 + (1,) + (0,) * 6)
        assert t.minimal_period == 7
        assert theta_exact(FAIR, t) == 1.0 - 2.0**-7

    @pytest.mark.parametrize("word", [(0, 1, 1), (0, 0, 1, 0, 1, 1), (1,), (0,)])
    def test_borderless_and_one_symbol_words_have_theta_one(self, word):
        t = PatternTarget(word=word)
        assert t.minimal_period == len(word)
        assert theta_exact(BIASED, t) == 1.0


class TestConsecutive:
    def test_d1_equals_hitting_mass(self):
        t = PatternTarget(word=(0, 1))
        pmf = hitting_pmf(FAIR, t, "stationary", 16)
        for k in (1, 3, 9):
            assert consecutive_joint_pmf(FAIR, t, [k]) == pytest.approx(
                pmf.mass_at(k), rel=1e-13
            )

    def test_spec_value_word_one_gaps_22(self):
        got = consecutive_joint_pmf(FAIR, PatternTarget(word=(1,)), [2, 2])
        assert got == pytest.approx(1.0 / 16.0, abs=1e-15)

    @pytest.mark.parametrize("gaps", [[1, 1], [2, 3], [3, 1, 2]])
    @pytest.mark.parametrize("from_entry", [False, True])
    def test_against_enumeration(self, gaps, from_entry):
        word = (1, 0)
        got = consecutive_joint_pmf(MARKOV2, PatternTarget(word=word), gaps, from_entry)
        brute = brute_consecutive_joint(
            MARKOV2.transitions, MARKOV2.stationary, word, gaps, from_entry
        )
        assert got == pytest.approx(brute, abs=1e-13)

    def test_renewal_factorization(self):
        # iid source, single-symbol word: gaps independent, joint = product
        t = PatternTarget(word=(1,))
        hit = hitting_pmf(BIASED, t, "stationary", 8)
        ret = return_pmf(BIASED, t, 8)
        got = consecutive_joint_pmf(BIASED, t, [3, 2, 4])
        assert got == pytest.approx(
            hit.mass_at(3) * ret.mass_at(2) * ret.mass_at(4), rel=1e-12
        )

    def test_underflow_reported(self):
        t = PatternTarget(word=(0,) * 8)
        with pytest.raises(ProbabilityUnderflowError):
            consecutive_joint_pmf(FAIR, t, [200000, 200000])

    @pytest.mark.parametrize("gap", [1000, 1100])
    def test_underflowed_leg_is_not_a_structural_zero(self, gap):
        # the mass is 2^-gap: below 1e-300 at 1000 and 0.0 in double at 1100,
        # an underflow either way, not an impossible gap
        t = PatternTarget(word=(1,))
        with pytest.raises(ProbabilityUnderflowError):
            consecutive_joint_pmf(FAIR, t, [gap])
        with pytest.raises(ProbabilityUnderflowError, match=f"k={gap}"):
            masses_at(FAIR, t, "stationary", [gap])

    def test_series_underflow_is_not_a_structural_zero(self):
        # fair 01's u never settles, so the series serves every read; its mass
        # k 2^-(k+1) falls below 1e-300 from k = 1006 on and to 0.0 by 1100
        t = PatternTarget(word=(0, 1))
        got = masses_at(FAIR, t, "stationary", [1000])
        assert got[0] == pytest.approx(1000 * 2.0**-1001, rel=1e-12)
        with pytest.raises(ProbabilityUnderflowError, match="k=1006"):
            masses_at(FAIR, t, "stationary", [1000, 1050])
        with pytest.raises(ProbabilityUnderflowError):
            consecutive_joint_pmf(FAIR, t, [1100])
        # a zero before the first underflowing mass stays structural
        got = masses_at(FAIR, PatternTarget(word=(0, 0)), "in_target", [1, 2, 3, 4])
        assert got.tolist() == [0.5, 0.0, 0.125, 0.0625]

    def test_oversized_gap_names_gaps(self):
        with pytest.raises(ValidationError, match="^gaps must"):
            consecutive_joint_pmf(FAIR, PatternTarget(word=(0, 1)), [3, 2**63])

    def test_product_matches_the_series_reference(self):
        # bit for bit where every chain step read lies below the crossover
        # 4l + 64, since both read the same series there; within 1e-13
        # relative past it, where a leg is read in closed form
        cyclic = MarkovSource.from_transitions([[0.1, 0.7, 0.2], [0.2, 0.1, 0.7], [0.6, 0.3, 0.1]])
        cases = [(FAIR, (0, 1, 1)), (FAIR, (0,) * 6), (cyclic, (0, 1, 2, 0)), (cyclic, (0, 0, 1)),
                 (BIASED, (1, 0, 1))]
        rng = np.random.default_rng(7)
        exact = close = zeros = 0
        for _ in range(600):
            source, word = cases[rng.integers(len(cases))]
            l = len(word)
            from_entry = bool(rng.integers(2))
            top = 4 * l + 64 - l if rng.integers(2) else 300  # all below the crossover, or any
            gaps = rng.integers(1, top + 1, size=rng.integers(1, 4)).tolist()
            target = PatternTarget(word=word)
            got = consecutive_joint_pmf(source, target, gaps, from_entry)
            want = series_consecutive_joint_pmf(source, target, gaps, from_entry)
            steps = [gaps[0] + (0 if from_entry else l - 1)] + gaps[1:]
            if want == 0.0 or got == 0.0:
                assert got == want, (word, gaps, from_entry)
                zeros += 1
            elif max(steps) < 4 * l + 64:
                assert got == want, (word, gaps, from_entry)
                exact += 1
            else:
                assert abs(got / want - 1.0) <= 1e-13, (word, gaps, from_entry)
                close += 1
        assert exact >= 200 and close >= 200 and zeros >= 10

    def test_rare_words_past_every_series_budget(self):
        # fair 0^(l-1)1 with gaps 1/mu and 2/mu: the series refused from l = 32
        l = 32
        target = PatternTarget(word=(0,) * (l - 1) + (1,))
        chain = ProductChain(FAIR, target)
        got = consecutive_joint_pmf(FAIR, target, [2**32, 2**33])
        (first,), (second,) = mpmath_absorbed(
            chain.survive, chain.into_match,
            [(chain.stationary_vector(), [2**32 + l - 1]), (chain.entry_vector(), [2**33])],
        )
        assert abs(mpmath.mpf(got) / (first * second) - 1) <= 1e-14
        # at l = 40 against mu^2 e^(-3), whose error is about 3 l mu
        mu = 2.0**-40
        got = consecutive_joint_pmf(FAIR, PatternTarget(word=(0,) * 39 + (1,)), [2**40, 2**41])
        assert abs(got / (mu**2 * math.exp(-3.0)) - 1.0) <= 1e-9

    @pytest.mark.parametrize("gaps", [[1], [2, 3]])
    def test_zero_measure_target(self, gaps):
        # 1 -> 1 is impossible, so the word 11 has measure 0
        source = MarkovSource.from_transitions([[0.5, 0.5], [1.0, 0.0]])
        target = PatternTarget(word=(1, 1))
        assert consecutive_joint_pmf(source, target, gaps) == 0.0
        with pytest.raises(ValidationError, match="zero measure"):
            return_pmf(source, target, 4)
        with pytest.raises(ValidationError, match="zero measure"):
            consecutive_joint_pmf(source, target, gaps, from_entry=True)


class TestConvergenceTable:
    def test_prediction_column_spec_value(self):
        rows = llt_convergence_table(
            FAIR, [PatternTarget(word=(0,) * 10)], delta=1.0, kind="return"
        )
        by_k = {r.k: r for r in rows}
        assert 1024 in by_k  # t = 1 sits in the delta = 1 window
        row = by_k[1024]
        assert row.predicted == pytest.approx(
            0.25 * math.exp(-0.5) * 2.0**-10, rel=1e-12
        )
        assert row.predicted == pytest.approx(1.4809e-4, rel=1e-4)
        assert row.exact == pytest.approx(row.ratio * row.predicted, rel=1e-12)

    def test_ratio_trend_in_l(self):
        targets = [PatternTarget(word=(0,) * l) for l in (6, 10)]
        rows = llt_convergence_table(FAIR, targets, delta=0.5, kind="return")
        worst = {}
        for r in rows:
            worst[r.l] = max(worst.get(r.l, 0.0), abs(r.ratio - 1.0))
        assert worst[10] < worst[6]

    def test_hitting_kind_nonperiodic(self):
        rows = llt_convergence_table(
            FAIR, [PatternTarget(word=(0, 0, 0, 1))], delta=0.5, kind="hitting"
        )
        for r in rows:
            assert r.predicted == pytest.approx(
                math.exp(-r.t) * 2.0**-4, rel=1e-12
            )

    def test_bordered_word_reads_its_minimal_period(self):
        # (01)^7 with theta from period 2; with theta = 1 it read 0.362
        rows = llt_convergence_table(FAIR, [PatternTarget(word=(0, 1) * 7)], delta=0.5)
        assert max(abs(r.ratio - 1.0) for r in rows) <= 2e-3

    def test_zero_measure_word_refused(self):
        src = MarkovSource.from_transitions([[0.5, 0.5], [1.0, 0.0]])
        for kind in ("return", "hitting"):
            with pytest.raises(ValidationError, match=r"target \(1, 1\) has measure 0\.0"):
                llt_convergence_table(src, [PatternTarget(word=(1, 1))], 0.5, kind)

    def test_k_grid_covers_window(self):
        ks = k_grid(2.0**-10, 0.5)
        t = ks * 2.0**-10
        assert t.min() >= 0.5 - 1e-9 and t.max() <= 2.0 + 1e-9
        assert ks.size >= 10

    def test_k_grid_refuses_times_past_int64(self):
        # 1/(delta mu) = 2^63 would be cast to int64
        with pytest.raises(ValidationError, match="int64 time limit"):
            k_grid(2.0**-62, 0.5)

    def test_table_at_the_rarest_int64_window(self):
        ks = k_grid(2.0**-60, 0.5)
        assert ks.size == 21 and ks[-1] == 2**61
        target = PatternTarget(word=(0,) * 59 + (1,))
        for kind in ("return", "hitting"):
            rows = llt_convergence_table(FAIR, [target], 0.5, kind)
            assert [r.k for r in rows] == ks.tolist()
            # e_l is about 1.5 l mu = 8e-17 here (fair 0^(l-1)1, theta = 1)
            assert max(abs(r.ratio - 1.0) for r in rows) <= 1e-13

    @pytest.mark.parametrize("mu_a", [0.0, -0.1, math.nan, 1.0, 1.5])
    def test_k_grid_refuses_measure_outside_unit_interval(self, mu_a):
        # 0.0 raised ZeroDivisionError, -0.1 blamed delta, nan the int64
        # limit, and 1.5 gave the grid [1]
        with pytest.raises(ValidationError, match=r"mu\(A\) must lie in \(0, 1\)"):
            k_grid(mu_a, 0.5)

    @pytest.mark.parametrize("delta", [0.0, -0.5, 1.5, math.nan])
    def test_k_grid_refuses_delta_outside_unit_interval(self, delta):
        with pytest.raises(ValidationError, match="delta must lie in"):
            k_grid(0.5, delta)


def _crossover(source, target, initial, k_last):
    """The time from which `masses_at` reads the closed form, derived as it
    derives it, with the settled (K0, u.q, 1 - lambda); None if unsettled."""
    chain, v, lead = _start(source, target, initial)
    settled = _settled_direction(
        chain.survive, chain.into_match, v, 4 * target.length + 64, k_last + lead
    )
    return None if settled is None else (settled[0] - lead, settled)


class TestMassesAt:
    """Masses at given times: the series before the crossover and, from it
    on, the closed form (u.q) lambda^(m - K0)."""

    @pytest.mark.parametrize("l", [16, 32])
    def test_tables_match_mpmath_at_every_grid_point(self, l):
        # fair 0^(l-1)1; at l = 32 the grid reaches k = 2^33, past every series budget
        target = PatternTarget(word=(0,) * (l - 1) + (1,))
        chain = ProductChain(FAIR, target)
        tables = {kind: llt_convergence_table(FAIR, [target], 0.5, kind)
                  for kind in ("return", "hitting")}
        runs = [(chain.entry_vector(), [r.k for r in tables["return"]]),
                (chain.stationary_vector(), [r.k + l - 1 for r in tables["hitting"]])]
        refs = mpmath_absorbed(chain.survive, chain.into_match, runs)
        assert len(tables["return"]) == len(tables["hitting"]) == 21
        for rows, ref in zip(tables.values(), refs):
            worst = max(abs(mpmath.mpf(r.exact) / want - 1) for r, want in zip(rows, ref))
            assert worst <= 4e-15

    @pytest.mark.parametrize(
        "source,word",
        [(FAIR, (0,) * l) for l in (8, 12, 16, 20)]
        + [(FAIR, (0,) * (l - 1) + (1,)) for l in (8, 12, 16)]
        + [(MARKOV3, w) for w in ((0, 1, 2) * 3, (1,) * 8, (1, 2) * 4, (0,) * 4)],
        ids=lambda x: "".join(map(str, x)) if isinstance(x, tuple) else None,
    )
    @pytest.mark.parametrize("initial", ["stationary", "in_target"])
    def test_closed_form_matches_the_series_where_both_run(self, source, word, initial):
        # the series drifts like k 2^-53 / 150 and k times the row defect, so
        # its horizons here stay below 2^21 and, on MARKOV3, below 2e4;
        # fair 0^19 1 at k = 2^21 already differs by 1.5e-12
        target = PatternTarget(word=word)
        ks = k_grid(source.word_measure(word), 0.5)
        crossover, _ = _crossover(source, target, initial, int(ks[-1]))
        assert crossover <= ks[0]  # every grid point is read in closed form
        series = hitting_pmf(source, target, initial, int(ks[-1])).masses[ks - 1]
        got = masses_at(source, target, initial, ks)
        assert np.max(np.abs(got / series - 1.0)) <= 1e-12

    @pytest.mark.parametrize("initial,lead", [("stationary", 9), ("in_target", 0)])
    def test_crossover_is_derived_and_agrees_with_the_series(self, initial, lead):
        target = PatternTarget(word=(0,) * 9 + (1,))
        ks = np.arange(1, 104 - lead + 201)
        crossover, (k0, at, escape) = _crossover(FAIR, target, initial, int(ks[-1]))
        # fair 0^9 1 settles at the first K0, chain step 4l + 64
        assert k0 == 104 and crossover == 104 - lead
        got = masses_at(FAIR, target, initial, ks)
        head, tail = ks < crossover, ks >= crossover
        head_law = hitting_pmf(FAIR, target, initial, crossover - 1)
        assert got[head].tolist() == head_law.masses.tolist()
        closed = at * np.exp((ks[tail] - crossover) * math.log1p(-escape))
        assert got[tail].tolist() == closed.tolist()
        series = hitting_pmf(FAIR, target, initial, int(ks[-1])).masses[ks[tail] - 1]
        assert np.max(np.abs(got[tail] / series - 1.0)) <= 1e-14

    def test_short_read_settles_nothing(self, monkeypatch):
        # times that end before chain step 4l + 64 are the series' alone
        def refuse(*args):
            raise AssertionError("a short read formed a matrix power")

        monkeypatch.setattr(np.linalg, "matrix_power", refuse)
        target = PatternTarget(word=(0,) * 9 + (1,))
        got = masses_at(FAIR, target, "in_target", [5, 50, 103])
        law = hitting_pmf(FAIR, target, "in_target", 103)
        assert got.tolist() == law.masses[[4, 49, 102]].tolist()

    @pytest.mark.parametrize("ks", [[10, 50], [10, 1000, 5000]], ids=["series", "both"])
    def test_one_product_chain_per_call(self, monkeypatch, ks):
        # the series head runs on the chain that the crossover search built
        built = []

        class Counted(ProductChain):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr("hittimes.markov_pattern.exact.ProductChain", Counted)
        masses_at(FAIR, PatternTarget(word=(0,) * 10), "stationary", ks)
        assert len(built) == 1

    def test_unsettled_direction_leaves_the_grid_to_the_series(self):
        # the halves of the slowly mixing chain balance over ~1e9 steps, so
        # u never settles by 1/(delta mu); a frequent word's masses are the series'
        slow = MarkovSource.from_transitions(_slowly_mixing_transitions())
        target = PatternTarget(word=(0, 1))
        ks = k_grid(slow.word_measure(target.word), 0.5)
        assert _crossover(slow, target, "in_target", int(ks[-1])) is None
        series = return_pmf(slow, target, int(ks[-1])).masses[ks - 1]
        assert masses_at(slow, target, "in_target", ks).tolist() == series.tolist()
        rows = llt_convergence_table(slow, [target], 0.5)
        assert [r.exact for r in rows] == series.tolist()

    def test_slowly_mixing_source_is_refused(self):
        slow = MarkovSource.from_transitions(_slowly_mixing_transitions())
        target = PatternTarget(word=(0, 1, 2, 3, 4, 5))
        ks = k_grid(slow.word_measure(target.word), 0.5)
        with pytest.raises(BudgetExceededError):
            masses_at(slow, target, "in_target", ks)
        for kind in ("return", "hitting"):
            with pytest.raises(BudgetExceededError):
                llt_convergence_table(slow, [target], 0.5, kind)

    def test_unknown_start_is_refused(self):
        with pytest.raises(ValidationError, match="unknown initial"):
            masses_at(FAIR, PatternTarget(word=(0, 1)), "uniform", [100])

    @pytest.mark.parametrize(
        "ks",
        [[], [5, 3], [4, 4], [2, 2.5], np.array([1.5, 3.0]), [0, 4], [-2], [True, False], [[1, 2]]],
        ids=["empty", "decreasing", "repeated", "fractional", "fractional-array", "zero",
             "negative", "bool", "2-D"],
    )
    def test_malformed_times_are_refused(self, ks):
        with pytest.raises(ValidationError, match="^ks must"):
            masses_at(FAIR, PatternTarget(word=(0, 1)), "stationary", ks)


class TestCounterexample:
    def test_pruned_mass_is_exactly_zero(self):
        report = counterexample_pruned_target(FAIR, PatternTarget(word=(1, 1)), 3)
        assert report.b_return_at_k_prune == 0.0

    def test_ratio_matches_return_law(self):
        report = counterexample_pruned_target(FAIR, PatternTarget(word=(1, 1)), 3)
        ret = return_pmf(FAIR, PatternTarget(word=(1, 1)), 3)
        assert report.ratio_b_over_a == pytest.approx(1.0 - ret.mass_at(3), abs=1e-10)
        assert report.pruned_mass == pytest.approx(ret.mass_at(3), abs=1e-14)

    def test_outside_support_keeps_whole_target(self):
        # word 11 has zero return mass at k = 2, so pruning there is a no-op
        report = counterexample_pruned_target(FAIR, PatternTarget(word=(1, 1)), 2)
        assert report.ratio_b_over_a == pytest.approx(1.0, abs=1e-14)
        assert report.cylinders_pruned == 0

    def test_other_sources_and_words(self):
        for source, word, k in [(BIASED, (0, 1), 2), (MARKOV2, (1, 0), 4)]:
            report = counterexample_pruned_target(source, PatternTarget(word=word), k)
            assert report.b_return_at_k_prune == 0.0
            ret = return_pmf(source, PatternTarget(word=word), k)
            assert report.ratio_b_over_a == pytest.approx(1.0 - ret.mass_at(k), abs=1e-10)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            counterexample_pruned_target(FAIR, PatternTarget(word=(1, 1)), 28)

    @pytest.mark.parametrize("k_prune", [2.5, 0, -1, True], ids=["fraction", "zero", "negative", "bool"])
    def test_bad_k_prune_refused_before_any_chain(self, monkeypatch, k_prune):
        for chain in (BlockChain, ProductChain):
            monkeypatch.setattr(chain, "__init__", lambda *a: pytest.fail("a chain was built"))
        with pytest.raises(ValidationError, match="k_prune must be >= 1, as integers"):
            counterexample_pruned_target(FAIR, PatternTarget(word=(1, 1)), k_prune)

    @pytest.mark.parametrize("k_prune", range(1, 7))
    @pytest.mark.parametrize(
        "source,word",
        [(MARKOV2, (0,)), (MARKOV2, (0, 0)), (MARKOV2, (0, 1, 0)), (MARKOV3, (0, 1, 2))],
        ids=["0", "00", "010", "012"],
    )
    def test_kept_cylinders_match_the_scalar_walk(self, monkeypatch, source, word, k_prune):
        # every continuation walked one symbol at a time from the full match,
        # in itertools.product's order: kept unless its first match is at k_prune
        table = build_automaton(PatternTarget(word=word), source.alphabet_size)
        want, pruned = [], 0
        for suffix in itertools.product(range(source.alphabet_size), repeat=k_prune):
            if scalar_first_match(table, suffix, len(word))[0] == k_prune:
                pruned += 1
            else:
                want.append(list(word + suffix))
        seen = []

        def spy(src, words, k_max):
            seen.append(np.asarray(words).tolist())
            return block_set_return_pmf(src, words, k_max)

        monkeypatch.setattr(reports, "block_set_return_pmf", spy)
        report = counterexample_pruned_target(source, PatternTarget(word=word), k_prune)
        assert seen == [want]
        assert (report.cylinders_kept, report.cylinders_pruned) == (len(want), pruned)


@st.composite
def small_words(draw):
    length = draw(st.integers(1, 4))
    return tuple(draw(st.integers(0, 1)) for _ in range(length))


VERIFY_MARKOV3 = MarkovSource.from_transitions(
    [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
)
# the identity words, both words of the verify-identities golden, and a rare
# word whose occurrences overlap at every shift
SERIES_WORDS = IDENTITY_WORDS + [
    (VERIFY_MARKOV3, (0, 1, 2, 0, 1, 2)), (VERIFY_MARKOV3, (0, 0, 1, 1, 2, 2)),
    (BIASED, (0,) * 20),
]


class TestSeriesAgainstStepLoops:
    """The split grid and the return excess, both `_absorption_series` calls,
    against the step loops they replaced."""

    @pytest.mark.parametrize("source,word", SERIES_WORDS)
    def test_shift_grid_matches_step_loop(self, source, word):
        target = PatternTarget(word=word)
        j_max, m_max = 700, 600
        lhs, _ = verify_shift_identity_grid(
            source, target, return_pmf(source, target, j_max + m_max - 1), j_max, m_max
        )
        _assert_rtol_zeros_exact(lhs, stepwise_shift_lhs(source, target, j_max, m_max))

    @pytest.mark.parametrize("source,word", SERIES_WORDS)
    def test_excess_matches_matrix_powers(self, source, word):
        target = PatternTarget(word=word)
        ks = [0, 1, 3, 16, 64, 511, 512, 513]
        _assert_rtol_zeros_exact(
            return_excess(source, target, ks), matrix_power_excess(source, target, ks)
        )

    def test_empty_ks_give_no_excess(self):
        assert return_excess(FAIR, PatternTarget(word=(1, 1)), []).shape == (0,)

    @settings(max_examples=30, deadline=None)
    @given(
        small_markov_sources(),
        st.lists(st.integers(0, 2), min_size=1, max_size=5),
        st.integers(1, 20),
        st.integers(1, 20),
    )
    def test_randomized(self, source, word, j_max, m_max):
        target = PatternTarget(word=tuple(c % source.alphabet_size for c in word))
        ret = return_pmf(source, target, j_max + m_max - 1)
        lhs, _ = verify_shift_identity_grid(source, target, ret, j_max, m_max)
        _assert_rtol_zeros_exact(lhs, stepwise_shift_lhs(source, target, j_max, m_max))
        ks = [0, j_max, m_max]
        _assert_rtol_zeros_exact(
            return_excess(source, target, ks), matrix_power_excess(source, target, ks)
        )


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(small_markov_sources(), small_words())
    def test_pmf_matches_enumeration_randomized(self, source, word):
        word = tuple(c % source.alphabet_size for c in word)
        k_max = 6
        pmf = hitting_pmf(source, PatternTarget(word=word), "stationary", k_max)
        brute = brute_hitting_masses(source.transitions, source.stationary, word, k_max)
        assert np.max(np.abs(pmf.masses - brute)) < 1e-11

    @settings(max_examples=25, deadline=None)
    @given(small_markov_sources(), small_words(), st.integers(0, 8))
    def test_inducing_identity_randomized(self, source, word, extra):
        word = tuple(c % source.alphabet_size for c in word)
        worst = _inducing_residual(source, word, 64, extra)
        assert worst < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(small_markov_sources(), small_words())
    def test_monotone_and_balanced_randomized(self, source, word):
        word = tuple(c % source.alphabet_size for c in word)
        pmf = hitting_pmf(source, PatternTarget(word=word), "stationary", 100)
        assert np.max(np.diff(pmf.masses)) <= 1e-14
        assert abs(pmf.total() - 1.0) < 1e-10
