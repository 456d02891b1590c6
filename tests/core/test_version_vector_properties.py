"""Property-based tests: the version-vector lattice (DESIGN.md inv. 1).

Version vectors under component-wise max form a join-semilattice whose
partial order is exactly the dominates-or-equal relation; Theorem 3's
machinery rests on these algebraic facts, so they get hypothesis
coverage rather than a few examples.
"""

from hypothesis import given, strategies as st

from repro.core.version_vector import Ordering, VersionVector, merge

N_NODES = 4

components = st.integers(min_value=0, max_value=50)
vectors = st.builds(
    VersionVector.from_counts,
    st.lists(components, min_size=N_NODES, max_size=N_NODES),
)


@given(vectors, vectors)
def test_comparison_is_antisymmetric(a, b):
    mirror = {Ordering.DOMINATES: Ordering.DOMINATED,
              Ordering.DOMINATED: Ordering.DOMINATES}
    ordering = b.compare(a)
    assert a.compare(b) is mirror.get(ordering, ordering)


@given(vectors)
def test_comparison_is_reflexive_equal(a):
    assert a.compare(a.copy()) is Ordering.EQUAL


@given(vectors, vectors, vectors)
def test_domination_is_transitive(a, b, c):
    if a.dominates_or_equal(b) and b.dominates_or_equal(c):
        assert a.dominates_or_equal(c)


@given(vectors, vectors)
def test_merge_is_commutative(a, b):
    assert merge(a, b) == merge(b, a)


@given(vectors, vectors, vectors)
def test_merge_is_associative(a, b, c):
    assert merge(merge(a, b), c) == merge(a, merge(b, c))


@given(vectors)
def test_merge_is_idempotent(a):
    assert merge(a, a) == a


@given(vectors, vectors)
def test_merge_is_least_upper_bound(a, b):
    m = merge(a, b)
    assert m.dominates_or_equal(a)
    assert m.dominates_or_equal(b)
    # Least: anything above both is above the merge.
    upper = VersionVector.from_counts(
        [max(x, y) + 1 for x, y in zip(a, b)]
    )
    assert upper.dominates_or_equal(m)


@given(vectors, vectors)
def test_merge_preserves_absorption(a, b):
    # a join (a join b) == a join b  (absorption over the same pair)
    m = merge(a, b)
    assert merge(a, m) == m


@given(vectors, vectors)
def test_exactly_one_ordering_holds(a, b):
    ordering = a.compare(b)
    checks = {
        Ordering.EQUAL: a == b,
        Ordering.DOMINATES: a.dominates_or_equal(b) and a != b,
        Ordering.DOMINATED: b.dominates_or_equal(a) and a != b,
        Ordering.CONCURRENT: not (
            a.dominates_or_equal(b) or b.dominates_or_equal(a)
        ),
    }
    assert checks[ordering]
    assert sum(bool(v) for v in checks.values()) == 1


@given(vectors, st.integers(min_value=0, max_value=N_NODES - 1))
def test_increment_strictly_dominates(a, node):
    bumped = a.copy()
    bumped.increment(node)
    assert bumped.compare(a) is Ordering.DOMINATES
