"""Property-based tests (hypothesis) for the term layer.

Invariants exercised here are the ones the rest of the system leans on:
round-trip parsing, canonical equality, self-matching, permutation
invariance of unordered terms, and bindings algebra.
"""

import math
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TermError
from repro.terms import (
    Bindings,
    CTerm,
    Data,
    QTerm,
    Var,
    canonical_str,
    d,
    instantiate,
    match,
    matches,
    parse_data,
    to_text,
    values_equal,
)

LABELS = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)

SCALARS = st.one_of(
    st.integers(min_value=-10_000, max_value=10_000),
    st.booleans(),
    st.text(alphabet=string.printable, max_size=12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


def data_terms(max_depth: int = 3) -> st.SearchStrategy[Data]:
    return st.recursive(
        st.builds(lambda lab: Data(lab, ()), LABELS),
        lambda children: st.builds(
            lambda lab, kids, ordered: Data(lab, tuple(kids), ordered),
            LABELS,
            st.lists(st.one_of(SCALARS, children), max_size=4),
            st.booleans(),
        ),
        max_leaves=10,
    )


def term_to_query(term: Data) -> QTerm:
    """Structure-preserving query: same labels, same mode, total match."""
    children = tuple(
        term_to_query(child) if isinstance(child, Data) else child for child in term.children
    )
    return QTerm(term.label, children, term.ordered, True, term.attrs)


def term_to_construct(term: Data) -> CTerm:
    children = tuple(
        term_to_construct(child) if isinstance(child, Data) else child
        for child in term.children
    )
    return CTerm(term.label, children, term.ordered, term.attrs)


class TestRoundTripProperties:
    @given(data_terms())
    @settings(max_examples=200)
    def test_parse_serialise_round_trip(self, term):
        assert parse_data(to_text(term)) == term

    @given(SCALARS)
    def test_scalar_round_trip(self, value):
        parsed = parse_data(to_text(d("w", value)))
        assert values_equal(parsed.children[0], value)

    @given(st.floats())
    def test_float_round_trip_or_refusal(self, value):
        """Every finite float reads back equal (the sign of zero included);
        ``inf``, ``-inf`` and ``nan`` are refused, never written as labels."""
        term = d("w", value)
        if math.isfinite(value):
            parsed = parse_data(to_text(term))
            assert parsed == term
            assert math.copysign(1.0, parsed.children[0]) == math.copysign(1.0, value)
        else:
            with pytest.raises(TermError, match="non-finite"):
                to_text(term)


class TestEqualityProperties:
    @given(data_terms())
    def test_canonical_preserves_semantic_equality(self, term):
        assert values_equal(term, term.canonical())

    @given(data_terms())
    def test_canonical_idempotent(self, term):
        assert term.canonical() == term.canonical().canonical()

    @given(data_terms(), st.randoms())
    def test_unordered_permutation_invariance(self, term, rng):
        if term.ordered or len(term.children) < 2:
            return
        shuffled = list(term.children)
        rng.shuffle(shuffled)
        permuted = term.with_children(tuple(shuffled))
        assert values_equal(term, permuted)
        assert canonical_str(term) == canonical_str(permuted)


class TestMatchingProperties:
    @given(data_terms())
    @settings(max_examples=150)
    def test_ground_term_matches_itself(self, term):
        assert matches(term, term)

    @given(data_terms())
    @settings(max_examples=150)
    def test_structure_preserving_query_matches(self, term):
        assert matches(term_to_query(term), term)

    @given(data_terms())
    @settings(max_examples=100)
    def test_var_wrapping_binds_whole_term(self, term):
        result = match(Var("X"), term)
        assert len(result) == 1
        assert values_equal(result[0]["X"], term)

    @given(data_terms())
    @settings(max_examples=100)
    def test_partial_relaxation_preserves_match(self, term):
        # Dropping totality can only widen the set of matched terms.
        query = term_to_query(term)
        relaxed = QTerm(query.label, query.children, query.ordered, False, query.attrs)
        assert matches(relaxed, term)

    @given(data_terms())
    @settings(max_examples=100)
    def test_wildcard_label_preserves_match(self, term):
        query = term_to_query(term)
        wild = QTerm("*", query.children, query.ordered, query.total, query.attrs)
        assert matches(wild, term)

    @given(data_terms())
    @settings(max_examples=100)
    def test_construct_rebuilds_term(self, term):
        built = instantiate(term_to_construct(term), Bindings())
        assert built == term


class TestBindingsProperties:
    pairs = st.lists(
        st.tuples(st.text(alphabet=string.ascii_uppercase, min_size=1, max_size=2), SCALARS),
        max_size=5,
    )

    @given(pairs, pairs)
    def test_merge_commutative_on_success(self, left_items, right_items):
        left = Bindings(tuple(dict(left_items).items()))
        right = Bindings(tuple(dict(right_items).items()))
        one = left.merge(right)
        other = right.merge(left)
        assert (one is None) == (other is None)
        if one is not None:
            assert one == other

    @given(pairs)
    def test_merge_identity(self, items):
        b = Bindings(tuple(dict(items).items()))
        assert b.merge(Bindings()) == b
        assert Bindings().merge(b) == b

    @given(pairs)
    def test_merge_idempotent(self, items):
        b = Bindings(tuple(dict(items).items()))
        assert b.merge(b) == b

    @given(pairs)
    def test_project_subset(self, items):
        b = Bindings(tuple(dict(items).items()))
        names = set(list(b.names)[:2])
        assert b.project(names).names <= frozenset(names)
