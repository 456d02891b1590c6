"""Differential property tests: the ``array('Q')``-backed
:class:`VersionVector` against a pure-list reference model.

The dense-array representation buys its speed with three caches
(``_total``, ``_hash``, ``_tuple``) and fused C-level passes
(``map(max, ...)``, ``any(map(operator.lt, ...))``) — exactly the kind
of code where an invalidation bug or an early-exit mistake produces a
vector that is *mostly* right.  The reference model below is the
boring per-index implementation the algebra is defined by; hypothesis
drives both through the same operation sequences and every observable
must agree at every step.
"""

from hypothesis import given, settings, strategies as st

from repro.core.messages import PropagationRequest
from repro.core.version_vector import Ordering, VersionVector, merge
from repro.errors import ReplicaSetMismatchError, UnknownNodeError
from repro.wire import WireCodec

N_NODES = 5

components = st.integers(min_value=0, max_value=60)
count_lists = st.lists(components, min_size=N_NODES, max_size=N_NODES)


# -- the reference model ----------------------------------------------------


def ref_compare(a: list, b: list) -> Ordering:
    some_less = any(x < y for x, y in zip(a, b))
    some_greater = any(x > y for x, y in zip(a, b))
    if not some_less and not some_greater:
        return Ordering.EQUAL
    if some_less and some_greater:
        return Ordering.CONCURRENT
    return Ordering.DOMINATES if some_greater else Ordering.DOMINATED


def ref_merge(a: list, b: list) -> list:
    return [max(x, y) for x, y in zip(a, b)]


def ref_missing_from(a: list, b: list) -> dict:
    return {k: b[k] - a[k] for k in range(len(a)) if b[k] > a[k]}


# -- pure algebra -----------------------------------------------------------


@given(count_lists, count_lists)
def test_comparisons_match_reference(a, b):
    va, vb = VersionVector.from_counts(a), VersionVector.from_counts(b)
    expected = ref_compare(a, b)
    assert va.compare(vb) is expected
    assert va.dominates(vb) is (expected is Ordering.DOMINATES)
    assert va.dominates_or_equal(vb) is (
        expected in (Ordering.DOMINATES, Ordering.EQUAL)
    )
    assert va.concurrent_with(vb) is (expected is Ordering.CONCURRENT)
    assert (va == vb) is (expected is Ordering.EQUAL)


@given(count_lists, count_lists)
def test_merge_and_missing_from_match_reference(a, b):
    va, vb = VersionVector.from_counts(a), VersionVector.from_counts(b)
    assert list(merge(va, vb)) == ref_merge(a, b)
    assert va.missing_from(vb) == ref_missing_from(a, b)
    # merge() left its operands untouched.
    assert list(va) == a and list(vb) == b


@given(count_lists)
def test_observables_match_reference(a):
    vv = VersionVector.from_counts(a)
    assert len(vv) == len(a)
    assert list(vv) == a
    assert vv.as_tuple() == tuple(a)
    assert [vv[k] for k in range(len(a))] == a
    assert vv.total() == sum(a)
    assert vv.recompute_total() == sum(a)


@given(count_lists)
def test_equal_values_hash_equal_across_construction_paths(a):
    # Same components via tuple-decode path, list path, and mutation.
    via_tuple = VersionVector.from_counts(tuple(a))
    via_list = VersionVector.from_counts(a)
    mutated = VersionVector(len(a))
    for k, value in enumerate(a):
        mutated.increment(k, value)
    assert via_tuple == via_list == mutated
    assert hash(via_tuple) == hash(via_list) == hash(mutated)


# -- mutation sequences -----------------------------------------------------


_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("increment"),
            st.integers(0, N_NODES - 1),
            st.integers(0, 10),
        ),
        st.tuples(
            st.just("setitem"),
            st.integers(0, N_NODES - 1),
            st.integers(0, 100),
        ),
        st.tuples(st.just("merge_from"), count_lists),
        st.tuples(st.just("extend_to"), st.integers(0, 3)),
    ),
    max_size=12,
)


@settings(max_examples=200)
@given(count_lists, _operations)
def test_mutation_sequences_match_reference(initial, operations):
    vv = VersionVector.from_counts(initial)
    model = list(initial)
    for op in operations:
        if op[0] == "increment":
            _, node, by = op
            vv.increment(node, by)
            model[node] += by
        elif op[0] == "setitem":
            _, node, value = op
            vv[node] = value
            model[node] = value
        elif op[0] == "merge_from":
            other = list(op[1]) + [0] * (len(model) - N_NODES)
            vv.merge_from(VersionVector.from_counts(other))
            model = ref_merge(model, other)
        else:  # extend_to
            grow = op[1]
            vv.extend_to(len(model) + grow)
            model.extend([0] * grow)
        # Every cache-backed observable agrees after every mutation —
        # a stale _total/_hash/_tuple surfaces at the op that broke it.
        assert list(vv) == model
        assert vv.as_tuple() == tuple(model)
        assert vv.total() == sum(model)
        assert vv.total() == vv.recompute_total()
        assert vv == VersionVector.from_counts(model)
        assert hash(vv) == hash(VersionVector.from_counts(model))


@given(count_lists)
def test_copy_is_independent(a):
    vv = VersionVector.from_counts(a)
    dup = vv.copy()
    assert dup == vv and hash(dup) == hash(vv)
    dup.increment(0)
    assert list(vv) == a
    assert dup != vv or a[0] != dup[0] - 1  # vv untouched by the mutation


# -- error cases ------------------------------------------------------------


def test_from_counts_rejects_negative_components():
    for bad in ([-1, 0, 0], [0, 0, -7]):
        try:
            VersionVector.from_counts(bad)
        except ValueError as exc:
            assert "negative" in str(exc)
        else:
            raise AssertionError("negative component accepted")


def test_from_counts_rejects_oversized_and_non_int_components():
    try:
        VersionVector.from_counts([1 << 64])
    except ValueError as exc:
        assert "64-bit" in str(exc)
    else:
        raise AssertionError("2**64 component accepted")
    try:
        VersionVector.from_counts(["seven"])
    except TypeError:
        pass
    else:
        raise AssertionError("non-int component accepted")


def test_out_of_range_node_raises_unknown_node_error():
    vv = VersionVector(N_NODES)
    for access in (
        lambda: vv[N_NODES],
        lambda: vv.increment(N_NODES),
        lambda: vv.__setitem__(N_NODES, 1),
    ):
        try:
            access()
        except UnknownNodeError:
            pass
        else:
            raise AssertionError("out-of-range node accepted")


def test_negative_mutations_rejected():
    vv = VersionVector(N_NODES)
    for mutate in (
        lambda: vv.increment(0, -1),
        lambda: vv.__setitem__(0, -1),
    ):
        try:
            mutate()
        except ValueError:
            pass
        else:
            raise AssertionError("negative mutation accepted")
    assert list(vv) == [0] * N_NODES  # failed mutations left no trace


def test_mismatched_replica_sets_rejected():
    small, big = VersionVector(2), VersionVector(3)
    for operation in (
        lambda: small.compare(big),
        lambda: small.merge_from(big),
        lambda: small.dominates_or_equal(big),
        lambda: small.missing_from(big),
    ):
        try:
            operation()
        except ReplicaSetMismatchError:
            pass
        else:
            raise AssertionError("mismatched replica sets accepted")
    try:
        big.extend_to(2)
    except ValueError:
        pass
    else:
        raise AssertionError("shrinking extend_to accepted")


# -- wire round-trip --------------------------------------------------------


@given(st.lists(count_lists, min_size=1, max_size=4))
def test_wire_roundtrip_preserves_vectors(vector_batch):
    # Successive requests on one directed link exercise both the full
    # and the delta vector encodings against the same cache state.
    for delta in (False, True):
        sender = WireCodec((), delta_vv=delta)
        receiver = WireCodec((), delta_vv=delta)
        for counts in vector_batch:
            message = PropagationRequest(1, VersionVector.from_counts(counts))
            decoded = receiver.decode(0, 1, sender.encode(0, 1, message))
            assert decoded.dbvv == message.dbvv
            assert decoded.dbvv.as_tuple() == tuple(counts)
            assert decoded.dbvv.total() == sum(counts)
