"""Field arithmetic and fixed-point codec tests.

The oracle throughout is plain big-integer arithmetic with ``% P`` — Python
ints never overflow, so an independent computation path is one expression.
"""

import ast
import math
import operator
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import EDGE_ELEMENTS
from secagg5g import field
from secagg5g.field import P, FixedPointCodec, decode_sum, encode_update, vec_add, vec_sub

elements = st.integers(min_value=0, max_value=P - 1)
# edge values drawn often enough to meet each other in one vector
kernel_elements = st.sampled_from(EDGE_ELEMENTS) | elements


def test_modulus_value():
    assert P == 2**61 - 1
    assert P == 2305843009213693951


def test_vec_add_identity():
    assert vec_add([1, 2], [0, 0]).tolist() == [1, 2]


def test_vec_add_wraparound():
    assert vec_add([P - 1, 3], [2, 4]).tolist() == [1, 7]


def test_vec_add_matches_bigint_oracle():
    rng = random.Random(101)
    for _ in range(1000):
        a = [rng.randrange(P) for _ in range(5)]
        b = [rng.randrange(P) for _ in range(5)]
        assert vec_add(a, b).tolist() == [(x + y) % P for x, y in zip(a, b)]
        assert vec_sub(a, b).tolist() == [(x - y) % P for x, y in zip(a, b)]


def test_vec_sub_self_is_zero():
    v = [5, P - 2, 123456789]
    assert vec_sub(v, v).tolist() == [0, 0, 0]


def test_vec_sub_wraparound():
    assert vec_sub([0], [1]) == [P - 1]


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        vec_add([1], [1, 2])
    with pytest.raises(ValueError):
        vec_sub([1, 2, 3], [1, 2])


@given(st.lists(elements, min_size=1, max_size=8), st.data())
def test_add_then_sub_round_trip(a, data):
    b = data.draw(st.lists(elements, min_size=len(a), max_size=len(a)))
    assert vec_sub(vec_add(a, b), b).tolist() == a


def test_scalar_ops_match_oracle():
    rng = random.Random(77)
    for _ in range(2000):
        a, b = rng.randrange(P), rng.randrange(P)
        assert field.add(a, b) == (a + b) % P
        assert field.sub(a, b) == (a - b) % P
        assert field.mul(a, b) == (a * b) % P


def test_scalar_group_laws_bulk():
    # associativity / identity / inverse on a large random sample
    rng = random.Random(2024)
    for _ in range(10_000):
        a, b, c = rng.randrange(P), rng.randrange(P), rng.randrange(P)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.add(a, 0) == a
        assert field.sub(a, a) == 0
        assert field.mul(a, 1) == a


def test_inverse():
    rng = random.Random(5)
    for _ in range(200):
        a = rng.randrange(1, P)
        assert field.mul(a, field.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


# -- fixed-point codec ------------------------------------------------------


def test_encode_zero_vector():
    codec = FixedPointCodec()
    assert encode_update([0.0] * 4, codec).tolist() == [0, 0, 0, 0]


def test_encode_definitional_values():
    codec = FixedPointCodec(frac_bits=8)
    assert encode_update([1.0], codec) == [256]
    assert encode_update([-0.5], codec) == [P - 128]


def test_encode_bound_enforced():
    codec = FixedPointCodec(magnitude_bound=1.0)
    with pytest.raises(ValueError):
        encode_update([1.25], codec)


def test_decode_zero_vector():
    codec = FixedPointCodec()
    assert decode_sum([0, 0], codec, 1).tolist() == [0.0, 0.0]


def test_decode_rejects_too_many_summands():
    codec = FixedPointCodec(max_summands=8)
    with pytest.raises(ValueError):
        decode_sum([0], codec, 9)


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=16))
def test_encode_decode_round_trip(w):
    codec = FixedPointCodec(frac_bits=16)
    decoded = decode_sum(encode_update(w, codec), codec, 1)
    assert max(abs(d - x) for d, x in zip(decoded, w)) <= 2.0**-17


def test_sum_of_eight_encodings_decodes_to_real_sum():
    codec = FixedPointCodec(frac_bits=16)
    rng = random.Random(31)
    vectors = [[rng.uniform(-1, 1) for _ in range(20)] for _ in range(8)]
    total = [0] * 20
    for w in vectors:
        total = vec_add(total, encode_update(w, codec))
    decoded = decode_sum(total, codec, 8)
    oracle = [sum(col) for col in zip(*vectors)]  # plain float sums
    assert max(abs(d - o) for d, o in zip(decoded, oracle)) <= 8 * 2.0**-17


def test_headroom_property_at_limit():
    # max_summands vectors at the magnitude bound still decode unambiguously
    codec = FixedPointCodec(frac_bits=16, magnitude_bound=1.0, max_summands=64)
    total = [0]
    for _ in range(64):
        total = vec_add(total, encode_update([-1.0], codec))
    assert decode_sum(total, codec, 64) == [-64.0]


def test_codec_headroom_invariant_enforced():
    with pytest.raises(ValueError):
        FixedPointCodec(frac_bits=40, magnitude_bound=1024.0, max_summands=10_000)
    with pytest.raises(ValueError):
        FixedPointCodec(frac_bits=-1)
    with pytest.raises(ValueError):
        FixedPointCodec(magnitude_bound=0.0)
    with pytest.raises(ValueError):
        FixedPointCodec(max_summands=0)
    # each failed as a TypeError, or built a codec (max_summands=2.5); a NaN
    # or infinite bound was refused only as a codec that overflows the field
    for name, value in [("frac_bits", 2.5), ("frac_bits", True), ("magnitude_bound", "1"),
                        ("magnitude_bound", None), ("max_summands", 2.5),
                        ("magnitude_bound", math.nan), ("magnitude_bound", math.inf)]:
        with pytest.raises(ValueError, match=f"{name} = "):
            FixedPointCodec(**{name: value})


def test_codec_refuses_one_summand_past_the_overflow_boundary():
    # the largest count whose headroom m * (2^16 + 1) stays below p/2
    FixedPointCodec(16, 1.0, 17_591_917_613_055)
    with pytest.raises(ValueError, match="overflows the field"):
        FixedPointCodec(16, 1.0, 17_591_917_613_056)


# -- uint64 kernels against the plain-int reference ----------------------------


def u64(values):
    return np.array(values, dtype=np.uint64)


@settings(max_examples=300)
@given(st.lists(st.tuples(kernel_elements, kernel_elements), min_size=1, max_size=40))
def test_vector_kernels_match_plain_ints(pairs):
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    assert field.mulmod(u64(a), u64(b)).tolist() == [x * y % P for x, y in pairs]
    assert vec_add(u64(a), u64(b)).tolist() == [(x + y) % P for x, y in pairs]
    assert vec_sub(u64(a), u64(b)).tolist() == [(x - y) % P for x, y in pairs]


@given(kernel_elements, st.lists(kernel_elements, min_size=1, max_size=20))
def test_mulmod_broadcasts_a_scalar(k, v):
    assert field.mulmod(k, u64(v)).tolist() == [k * x % P for x in v]


def test_mulmod_every_edge_pair():
    grid = [(x, y) for x in EDGE_ELEMENTS for y in EDGE_ELEMENTS]
    a, b = u64([x for x, _ in grid]), u64([y for _, y in grid])
    assert field.mulmod(a, b).tolist() == [x * y % P for x, y in grid]


NOT_WRITTEN = 2**64 - 1  # no canonical product equals it


def strided_out(shape):
    """A view of ``shape`` that takes every other element of a larger array
    filled with NOT_WRITTEN, and that array."""
    rows, d = shape if len(shape) == 2 else (None, shape[0])
    big = np.full((2 * (rows or 1), 2 * d + 1), NOT_WRITTEN, dtype=np.uint64)
    view = big[::2, 1::2] if rows else big[0, 1::2]
    return view, big


def products(a, b):
    """Plain-int a * b mod p, with a an int, a list of ints or a column of
    one-int lists, and b a list."""
    if isinstance(a, int):
        return [a * y % P for y in b]
    if isinstance(a[0], list):
        return [[x * y % P for y in b] for [x] in a]
    return [x * y % P for x, y in zip(a, b)]


def check_mulmod_out(a, b):
    left = np.array(a, dtype=np.uint64)
    right = u64(b)
    left.setflags(write=False)
    right.setflags(write=False)
    want = products(a, b)
    out, big = strided_out(np.broadcast(left, right).shape)
    assert field.mulmod(left, right, out=out) is out
    assert out.tolist() == want
    # every element outside the view is untouched, and so are the inputs
    assert int((big != NOT_WRITTEN).sum()) == out.size
    assert left.tolist() == a and right.tolist() == b


@pytest.mark.parametrize("shape", ["column", "vector", "0-d key"])
def test_mulmod_out_every_edge_pair(shape):
    edges = list(EDGE_ELEMENTS)
    if shape == "column":
        check_mulmod_out([[x] for x in edges], edges)
    elif shape == "vector":
        grid = [(x, y) for x in edges for y in edges]
        check_mulmod_out([x for x, _ in grid], [y for _, y in grid])
    else:
        for key in edges:
            check_mulmod_out(key, edges)


@settings(max_examples=200)
@given(st.data())
def test_mulmod_out_matches_plain_ints(data):
    # (m, 1) x (d,), (d,) x (d,) and a 0-d key x (d,), written into a
    # strided view, from read-only inputs
    d = data.draw(st.integers(min_value=1, max_value=12))
    b = data.draw(st.lists(kernel_elements, min_size=d, max_size=d))
    a = data.draw(st.one_of(
        st.lists(st.lists(kernel_elements, min_size=1, max_size=1), min_size=1, max_size=5),
        st.lists(kernel_elements, min_size=d, max_size=d),
        kernel_elements))
    check_mulmod_out(a, b)


def test_mulmod_out_may_be_an_input():
    a, b = u64([3, P - 1, 2**32]), u64([P - 1, 2**32 - 1, 2**32])
    want = [x * y % P for x, y in zip(a.tolist(), b.tolist())]
    assert field.mulmod(a, b, out=b) is b
    assert b.tolist() == want


@settings(max_examples=200)
@given(st.data())
def test_vec_sum_matches_plain_ints(data):
    m = data.draw(st.integers(min_value=1, max_value=12))
    d = data.draw(st.integers(min_value=1, max_value=16))
    rows = data.draw(st.lists(st.lists(kernel_elements, min_size=d, max_size=d),
                              min_size=m, max_size=m))
    assert field.vec_sum(u64(rows)).tolist() == [sum(col) % P for col in zip(*rows)]


def test_vec_sum_of_many_maximal_rows():
    # 4096 rows of p - 1 would overflow a plain uint64 column sum 2^12 times over
    rows = np.full((4096, 3), P - 1, dtype=np.uint64)
    assert field.vec_sum(rows).tolist() == [4096 * (P - 1) % P] * 3


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=20))
def test_fold_reduces_any_uint64(values):
    assert field.fold(u64(values)).tolist() == [x % P for x in values]


# the words where a fold's bounds are tight, with p and 2^61 among them
WORD_EDGES = [0, 1, P - 1, P, 2**61, 2**63, 2**64 - 1]
words = st.sampled_from(WORD_EDGES) | st.integers(min_value=0, max_value=2**64 - 1)


@pytest.mark.parametrize("scratch", [False, True])
def test_fold_works_in_place_on_a_strided_view(scratch):
    x, big = strided_out((len(WORD_EDGES),))
    x[:] = WORD_EDGES
    tmp = np.empty(len(WORD_EDGES), dtype=np.uint64) if scratch else None
    assert field.fold(x, tmp) is x
    assert x.tolist() == [v % P for v in WORD_EDGES]
    assert int((big != NOT_WRITTEN).sum()) == x.size  # nothing outside the view


def check_fold_wide(pairs):
    # lo and hi as the strided columns of one read-only (m, 2) array, as
    # the coefficient derivation reads them from the XOF stream
    stream = u64(pairs)
    stream.setflags(write=False)
    got = field.fold_wide(stream[:, 0], stream[:, 1])
    assert got.tolist() == [(lo + 2**64 * hi) % P for lo, hi in pairs]


def test_fold_wide_every_edge_pair():
    check_fold_wide([(lo, hi) for lo in WORD_EDGES for hi in WORD_EDGES])


@settings(max_examples=300)
@given(st.lists(st.tuples(words, words), min_size=1, max_size=20))
def test_fold_wide_matches_plain_ints(pairs):
    check_fold_wide(pairs)


def test_require_canonical():
    field.require_canonical(u64(EDGE_ELEMENTS))
    field.require_canonical(u64([]))
    for bad in (P, P + 1, 2**64 - 1):
        with pytest.raises(ValueError):
            field.require_canonical(u64([0, bad, 1]))


def plain_encode(x: float, frac_bits: int) -> int:
    """The reference codec: Python's round (half to even) in exact ints."""
    return round(x * (1 << frac_bits)) % P


halfway = st.integers(min_value=0, max_value=(1 << 16) - 1).map(lambda k: (k + 0.5) / 2**16)


@settings(max_examples=300)
@given(st.lists(halfway | halfway.map(lambda x: -x)
                | st.floats(min_value=-1.0, max_value=1.0)
                | st.sampled_from([1.0, -1.0, 0.0, -0.0, 2.0**-17, -(2.0**-17)]),
                min_size=1, max_size=32))
def test_encode_matches_plain_round(w):
    codec = FixedPointCodec(frac_bits=16, magnitude_bound=1.0)
    assert encode_update(w, codec).tolist() == [plain_encode(x, 16) for x in w]


def test_encode_exact_ties_round_half_to_even():
    codec = FixedPointCodec(frac_bits=16)
    w = [0.5 / 2**16, 1.5 / 2**16, 2.5 / 2**16, -0.5 / 2**16, -1.5 / 2**16, -2.5 / 2**16]
    assert encode_update(w, codec).tolist() == [0, 2, 2, 0, P - 2, P - 2]


def test_encode_rejects_nan_and_infinities():
    codec = FixedPointCodec()
    for bad in (math.nan, math.inf, -math.inf, -1.0000001):
        with pytest.raises(ValueError):
            encode_update([0.0, bad], codec)


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=16),
       st.lists(kernel_elements, min_size=16, max_size=16))
def test_encode_masked_is_encode_plus_mask(w, mask):
    codec = FixedPointCodec(frac_bits=16)
    mask = mask[: len(w)]
    got = field.encode_masked(w, codec, u64(mask)).tolist()
    assert got == [(plain_encode(x, 16) + m) % P for x, m in zip(w, mask)]


def test_encode_masked_dimension_mismatch():
    with pytest.raises(ValueError):
        field.encode_masked([0.0], FixedPointCodec(), u64([1, 2]))


def plain_decode(x: int, frac_bits: int) -> float:
    return (x - P if x > P // 2 else x) / (1 << frac_bits)


@given(st.lists(st.integers(min_value=P // 2 - 3, max_value=P // 2 + 3)
                | st.sampled_from(EDGE_ELEMENTS) | elements, min_size=1, max_size=16),
       st.sampled_from([0, 1, 16, 30]))
def test_decode_matches_plain_ints_around_half_p(v, frac_bits):
    codec = FixedPointCodec(frac_bits=frac_bits, magnitude_bound=1.0, max_summands=1)
    got = decode_sum(u64(v), codec, 1)
    assert got.dtype == np.float64
    assert got.tolist() == [plain_decode(x, frac_bits) for x in v]


# -- one int rule and one real rule ----------------------------------------------


_RULE_ATTRIBUTES = {("numbers", "Real"), ("numbers", "Integral"),
                    ("math", "isfinite"), ("math", "isnan"), ("math", "isinf")}


def _tests_a_number_type(node) -> bool:
    """Whether ``node`` is ``isinstance(_, bool)`` (or a tuple with bool),
    ``type(_) is int`` / ``is not bool`` and the like, a numbers ABC, or
    ``math.isfinite``, ``isnan`` or ``isinf``, which a range check of
    ``require_real`` makes needless."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return (node.func.id == "isinstance" and len(node.args) == 2
                and any(isinstance(n, ast.Name) and n.id == "bool"
                        for n in ast.walk(node.args[1])))
    if isinstance(node, ast.Compare):
        return (any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(isinstance(n, ast.Name) and n.id in ("int", "bool")
                        for n in [node.left, *node.comparators]))
    if isinstance(node, ast.Attribute):
        return (isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in _RULE_ATTRIBUTES)
    return isinstance(node, ast.ImportFrom) and (
        node.module == "numbers" or any((node.module, a.name) in _RULE_ATTRIBUTES for a in node.names))


def _checks_outside_field(is_check) -> set[tuple[str, str]]:
    """(file, innermost enclosing function) of every node of the package
    outside ``field.py`` for which ``is_check`` holds."""
    found = set()
    for path in sorted(Path(field.__file__).parent.glob("*.py")):
        if path.name == "field.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> innermost enclosing function; ast.walk is outer-first
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        found |= {(path.name, owner.get(id(node), "<module>"))
                  for node in ast.walk(tree) if is_check(node)}
    return found


def test_only_field_decides_what_is_an_int_or_a_real():
    # every input check calls field.require_int or field.require_real; the
    # hand-written checks they replaced kept two policies on bools, and the
    # range checks beside them their own phrasings. The message header check
    # mirrors require_int, inlined because every message runs it and two
    # require_int calls cost about three times as much
    assert _checks_outside_field(_tests_a_number_type) == {("messages.py", "_require_header")}


def _compares_an_array_layout(node) -> bool:
    """Whether ``node`` compares an array's ``.dtype`` or ``.ndim``, whole or
    by a part such as ``.dtype.kind``."""
    return isinstance(node, ast.Compare) and any(
        isinstance(n, ast.Attribute) and n.attr in ("dtype", "ndim")
        for operand in (node.left, *node.comparators) for n in ast.walk(operand))


def test_only_field_decides_what_is_an_array():
    # every array check calls field.require_array, which converts nothing;
    # protocol._rows alone converts, since a list of row indices is any int
    # array or sequence, not a wire field
    assert _checks_outside_field(_compares_an_array_layout) == {("protocol.py", "_rows")}


_FOLDS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
          ast.Pow: operator.pow, ast.LShift: operator.lshift}


def _spelled_int(node) -> int | None:
    """The int that ``node`` writes out in literals, such as ``(1 << 32) - 1``
    or ``2**32 - 1``, else None."""
    if isinstance(node, ast.Constant):
        return node.value if type(node.value) is int else None
    if isinstance(node, ast.BinOp) and type(node.op) in _FOLDS:
        left, right = _spelled_int(node.left), _spelled_int(node.right)
        if left is not None and right is not None:
            return _FOLDS[type(node.op)](left, right)
    return None


def _name(node) -> str | None:
    """The name ``node`` reads, plain (``P``) or as an attribute (``field.P``)."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _splits_32_bit_limbs(node) -> bool:
    """Whether ``node`` is a right shift by 32 or a mask of 2^32 - 1, written
    out (``x >> 32``, ``x >>= 32``, ``0xFFFFFFFF``, ``(1 << 32) - 1``) or made
    a kernel constant by ``field.word(32)`` or ``field.word((1 << 32) - 1)``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.RShift):
        return _spelled_int(node.right if isinstance(node, ast.BinOp) else node.value) == 32
    if isinstance(node, ast.Call):
        return _name(node.func) == "word" and any(
            _spelled_int(arg) in (32, 2**32 - 1) for arg in node.args)
    return _spelled_int(node) == 2**32 - 1


def test_only_field_splits_words_into_32_bit_limbs():
    # the exact mod-p sums (vec_sum) and products (mulmod) split each word
    # into 32-bit limbs; a second split elsewhere is a second exact sum to
    # keep in step with the first
    assert _checks_outside_field(_splits_32_bit_limbs) == set()


@pytest.mark.parametrize("source, splits", [
    ("x >> 32", True), ("x >>= 32", True), ("x & 0xFFFFFFFF", True),
    ("x & ((1 << 32) - 1)", True), ("x & (2**32 - 1)", True), ("field.word(32)", True),
    ("word((1 << 32) - 1)", True), ("x >> 31", False), ("x << 32", False),
    ("1 << 32", False), ("x & P", False), ("field.word(61)", False)])
def test_the_limb_guard_sees_each_spelling_of_a_split(source, splits):
    assert any(_splits_32_bit_limbs(node) for node in ast.walk(ast.parse(source))) == splits


def _folds_words_mod_p(node) -> bool:
    """Whether ``node`` is a right shift by 61 or an ``&`` with p: written out
    (``x >> 61``, ``x >>= 61``, ``x & P``, ``x &= field.P_WORD``,
    ``x & ((1 << 61) - 1)``), as the ufunc (``np.right_shift(x, 61)``,
    ``np.bitwise_and(x, P_WORD)``) or made a kernel constant by
    ``field.word(61)``."""
    if isinstance(node, ast.Call):
        if _name(node.func) == "word":
            return any(_spelled_int(arg) == 61 for arg in node.args)
        op = {"right_shift": ast.RShift, "bitwise_and": ast.BitAnd}.get(_name(node.func))
        operands = node.args[:2]
    elif isinstance(node, ast.BinOp):
        op, operands = type(node.op), [node.left, node.right]
    elif isinstance(node, ast.AugAssign):
        op, operands = type(node.op), [node.target, node.value]
    else:
        return False
    if op is ast.RShift:
        return len(operands) == 2 and _spelled_int(operands[1]) == 61
    return op is ast.BitAnd and any(
        _name(x) in ("P", "P_WORD") or _spelled_int(x) == P for x in operands)


def test_only_field_folds_words_mod_p():
    # fold is the one Mersenne fold, and mulmod, vec_sum and fold_wide end
    # in it; a second fold elsewhere is a second reduction to keep exact
    assert _checks_outside_field(_folds_words_mod_p) == set()


@pytest.mark.parametrize("source, folds", [
    ("x >> 61", True), ("x >>= 61", True), ("field.word(61)", True), ("word(61)", True),
    ("x & P", True), ("P_WORD & x", True), ("x & field.P", True), ("x &= field.P_WORD", True),
    ("x & ((1 << 61) - 1)", True), ("x & (2**61 - 1)", True), ("np.right_shift(x, 61)", True),
    ("np.bitwise_and(x, field.P_WORD, out=t)", True),
    # the stations' test for a MISSING share compares with p, and folds nothing
    ("ys.max(axis=1, initial=0) < field.P_WORD", False), ("x >> 32", False),
    ("x << 61", False), ("x >> 60", False), ("61 >> x", False), ("x & 7", False),
    ("x % P", False), ("x - P_WORD", False), ("field.word(3)", False),
    ("require_int('key', key, end=field.P)", False), ("np.right_shift(x, 29)", False)])
def test_the_fold_guard_sees_each_spelling_of_a_fold(source, folds):
    assert any(_folds_words_mod_p(node) for node in ast.walk(ast.parse(source))) == folds


@pytest.mark.parametrize("value, dtype, ndim", [
    ([1, 2], np.uint64, 1),
    ((1, 2), np.uint64, 1),
    (np.array([1, 2], dtype=np.int64), np.uint64, 1),
    (np.array([1.0]), np.uint64, 1),
    (np.zeros((2, 2), dtype=np.uint64), np.uint64, 1),
    (np.uint64(3), np.uint64, 1),
    (np.zeros(2, dtype=np.uint64), np.uint64, 2),
    (np.zeros(2, dtype=np.uint64), np.float64, 1),
    (np.zeros(2, dtype=">u8"), np.dtype("<u8"), 1),
    (None, np.uint64, 1),
])
def test_require_array_refuses_any_other_dtype_or_ndim(value, dtype, ndim):
    with pytest.raises(ValueError, match=f"^words must be a {ndim}-d {np.dtype(dtype)} array$"):
        field.require_array("words", value, dtype, ndim)


def test_require_array_accepts_exactly_its_dtype_and_ndim():
    field.require_array("words", np.zeros(0, dtype=np.uint64), np.uint64)
    field.require_array("words", np.zeros(3, dtype="<u8"), np.dtype("<u8"))
    field.require_array("rows", np.zeros((2, 3), dtype=np.uint64), np.uint64, 2)
    field.require_array("weights", np.zeros(2)[::-1], np.float64)  # a view, not copied
