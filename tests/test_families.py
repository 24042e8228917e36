import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import (
    DegreeTooLow,
    DeltaTensor,
    EmptySubset,
    Flavor,
    InvalidFamily,
    MultilinearFamily,
    NcPartition,
    NcprobError,
    PositionOutOfRange,
    ShapeMismatch,
    SignedNcPartition,
    all_words,
    build_family,
    diagonal_delta,
    is_tracial,
    random_delta,
    random_family,
    random_tracial,
    relabel,
    restrict,
    truncate,
    zero_family,
)
from ncprob.families import KINDS


def test_totality_enforced():
    with pytest.raises(ShapeMismatch):
        MultilinearFamily(2, 2, {(1,): Fraction(1)})


def test_call_and_errors():
    f = random_family(2, 3, seed=1)
    assert isinstance(f((1, 2)), Fraction)
    with pytest.raises(DegreeTooLow):
        f((1, 1, 1, 1))
    with pytest.raises(PositionOutOfRange):
        f((1, 3))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_call_reads_exactly_the_words_of_the_table(k):
    # the int letters 1..k read their word; anything else, a float or a bool
    # equal to one of them too, is out of range, and a word longer than N is
    # too long first
    f = random_family(k, 3, seed=30 + k)
    table = f.values
    for w in all_words(k, 3):
        assert f(w) == f(list(w)) == table[w]
    for bad in [(), ("1",), (0,), (k + 1,), (1.5,), (None,), (1, 0), (k, k + 1), (1, 1, -1),
                (True,), (1.0,), (1, float(k))]:
        with pytest.raises(PositionOutOfRange):
            f(bad)
    for long in [(1,) * 4, (0,) * 4, ("1",) * 5]:
        with pytest.raises(DegreeTooLow):
            f(long)
    assert list(table) == list(all_words(k, 3))
    assert list(f.to_json_dict()["values"]) == [",".join(map(str, w)) for w in table]
    table[(1,)] += 1
    assert f((1,)) == f.values[(1,)] != table[(1,)]


def test_truncate_and_random_tracial_check_shape_and_kind():
    f = random_family(2, 4, seed=15)
    g = truncate(f, 2, kind="infinitesimal")
    assert g == MultilinearFamily(2, 2, {w: f(w) for w in all_words(2, 2)}, kind="infinitesimal")
    assert (g.kind, g.unit) == ("infinitesimal", "zero")
    with pytest.raises(ShapeMismatch):
        truncate(f, 0)
    with pytest.raises(InvalidFamily):
        truncate(f, 2, kind="bogus")
    for random in (random_family, random_tracial):
        with pytest.raises(ShapeMismatch):
            random(0, 3, seed=1)
        with pytest.raises(ShapeMismatch):
            random(2, 0, seed=1)
        with pytest.raises(InvalidFamily):
            random(2, 3, seed=1, kind="bogus")


def test_unit_flag_follows_kind():
    assert random_family(1, 2, seed=0).unit == "one"
    assert random_family(1, 2, seed=0, kind="infinitesimal").unit == "zero"
    assert zero_family(1, 2, kind="infinitesimal-cumulant").unit == "zero"
    assert zero_family(1, 2, kind="free-cumulant").unit == "one"


def test_restrict():
    f = random_family(2, 3, seed=2)
    assert restrict(f, (1, 2, 1), {1, 3}) == f((1, 1))
    assert restrict(f, (1, 2, 1), {1, 2, 3}) == f((1, 2, 1))
    assert restrict(f, (1, 2, 1), {2}) == f((2,))
    # presentation order of the set does not matter
    assert restrict(f, (1, 2, 2), [3, 1]) == f((1, 2))


def test_restrict_errors():
    f = random_family(2, 3, seed=3)
    with pytest.raises(EmptySubset):
        restrict(f, (1, 2), set())
    with pytest.raises(PositionOutOfRange):
        restrict(f, (1, 2), {3})


def test_is_tracial():
    assert is_tracial(random_family(1, 4, seed=4))
    f = random_tracial(2, 4, seed=5)
    assert is_tracial(f)
    g = random_family(2, 4, seed=6)
    assert g((1, 2)) != g((2, 1)) or g((1, 1, 2)) != g((1, 2, 1)) or not is_tracial(g)


def test_tracial_values_constant_on_full_orbits():
    f = random_tracial(2, 5, seed=7)
    for w in all_words(2, 5):
        for i in range(len(w)):
            assert f(w) == f(w[i:] + w[:i])


def test_single_perturbation_breaks_traciality():
    f = random_tracial(2, 3, seed=8)
    values = f.values
    values[(1, 2)] += 1
    assert not is_tracial(MultilinearFamily(2, 3, values))


def _recipe(rng, top=9, most=4):
    """One seeded value the way the random families are defined to draw it."""
    return Fraction(rng.randint(-top, top), rng.randint(1, most))


def test_tracial_draws_match_the_least_rotation_oracle():
    # the draws of the definition: each word's class is its least rotation,
    # drawn on first sight in all_words order; the orbit walk of the rank
    # map must draw the same values in the same order
    import random as _random

    for k, N in ((1, 5), (2, 6), (3, 4)):
        for seed in range(3):
            f = random_tracial(k, N, seed)
            rng = _random.Random(("tracial", k, N, seed).__repr__())
            classes = {}
            for w in all_words(k, N):
                rep = min(w[i:] + w[:i] for i in range(len(w)))
                if rep not in classes:
                    classes[rep] = _recipe(rng)
                assert f(w) == classes[rep]


def test_is_tracial_matches_the_word_by_word_definition():
    for k, N in ((1, 4), (2, 5), (3, 4)):
        base = random_tracial(k, N, seed=12)
        for w in all_words(k, N):
            values = base.values
            values[w] += 1
            g = MultilinearFamily(k, N, values)
            assert is_tracial(g) == all(
                g(u) == g(u[1:] + u[:1]) for u in all_words(k, N)
            )


def test_random_family_matches_the_word_keyed_recipe():
    # the draws of the definition: one per word in all_words order, passed
    # to the validating constructor as a word-keyed dict
    import random as _random

    for kind in KINDS:
        for k in range(1, 4):
            for N in range(1, 5):
                for seed in range(2):
                    rng = _random.Random(("family", k, N, seed).__repr__())
                    values = {w: _recipe(rng) for w in all_words(k, N)}
                    want = MultilinearFamily(k, N, values, kind=kind)
                    got = random_family(k, N, seed, kind=kind)
                    assert got == want and got.to_json_dict() == want.to_json_dict()


def test_random_delta_matches_its_recipe():
    import random as _random

    for k in range(1, 5):
        for seed in range(5):
            rng = _random.Random(("delta", k, seed).__repr__())
            entries = {
                (i, j, l): _recipe(rng, 2, 2)
                for i in range(1, k + 1) for j in range(1, k + 1) for l in range(1, k + 1)
            }
            assert random_delta(k, seed) == DeltaTensor(k, entries)


@pytest.mark.parametrize("top,most", [(9, 4), (2, 2)])
def test_layer_draws_leave_the_generator_where_the_recipe_does(top, most):
    # randint's values and its generator state after a layer, over enough
    # draws that every rejection path of both bounds is taken
    import random as _random

    from ncprob.families import _draw_layer

    for seed in range(20):
        want, got = _random.Random(seed), _random.Random(seed)
        values = [_recipe(want, top, most) for _ in range(500)]
        assert _draw_layer(got, 500, top, most) == values
        assert got.getstate() == want.getstate()


def test_random_generators_deterministic():
    assert random_family(2, 4, seed=11) == random_family(2, 4, seed=11)
    assert random_tracial(2, 4, seed=11) == random_tracial(2, 4, seed=11)


def test_random_seeds_differ():
    base = random_tracial(2, 4, seed=0)
    assert any(random_tracial(2, 4, seed=s) != base for s in range(1, 6))
    base = random_family(2, 4, seed=0)
    assert any(random_family(2, 4, seed=s) != base for s in range(1, 6))


def test_random_value_ranges():
    for f in (random_family(2, 5, seed=12), random_tracial(2, 5, seed=12)):
        for v in f.values.values():
            assert abs(v.numerator) <= 9
            assert 1 <= v.denominator <= 4


def test_relabel():
    f = random_family(1, 3, seed=13)
    assert relabel(f, 0) is f
    g = relabel(f, 1)
    assert g.k == 2
    assert g((2, 2)) == f((1, 1))
    assert g((1, 2)) == 0 and g((1,)) == 0
    h = relabel(random_family(2, 3, seed=14), 3)
    assert h.k == 5
    assert h((4, 5, 4)) == random_family(2, 3, seed=14)((1, 2, 1))


def test_truncate():
    f = random_family(2, 4, seed=15)
    g = truncate(f, 2)
    assert g.N == 2 and g((1, 2)) == f((1, 2))
    with pytest.raises(DegreeTooLow):
        truncate(g, 3)


@pytest.mark.parametrize("kind", KINDS)
def test_trusted_construction_matches_the_validating_constructor(kind):
    from ncprob import free_cumulants

    for f in (random_family(2, 3, seed=5, kind=kind),
              free_cumulants(random_family(3, 3, seed=6))):
        g = MultilinearFamily._trusted(f.k, f.N, f._layers, kind)
        checked = MultilinearFamily(f.k, f.N, f.values, kind=kind)
        assert g == checked and hash(g) == hash(checked)
        assert g.to_json_dict() == checked.to_json_dict()
        assert (g.kind, g.unit) == (checked.kind, checked.unit)


_F = random_family(2, 2, seed=7)
_D = {(1, 1, 1): Fraction(1, 2), (2, 1, 2): Fraction(-3)}
_DISCRETE = [(1,), (-1,), (2,), (-2,)]
# per value class: a value from the validating constructor, its `_trusted`
# twin (for the family, of another kind) and values that differ from it in
# one field its equality compares
VALUE_CASES = {
    "NcPartition": (
        NcPartition(4, [(3, 2), (4, 1)]),
        NcPartition._trusted(4, ((1, 4), (2, 3))),
        [NcPartition._trusted(5, ((1, 4), (2, 3))), NcPartition(4, [(1, 2), (3, 4)])],
    ),
    "SignedNcPartition": (
        SignedNcPartition(2, Flavor.B, reversed(_DISCRETE)),
        SignedNcPartition._trusted(2, Flavor.B, tuple(_DISCRETE)),
        [SignedNcPartition._trusted(3, Flavor.B, tuple(_DISCRETE)),
         SignedNcPartition(2, Flavor.B_OPP, _DISCRETE),
         SignedNcPartition(2, Flavor.B, [(1, 2), (-1, -2)])],
    ),
    "MultilinearFamily": (
        MultilinearFamily(2, 2, _F.values),
        MultilinearFamily._trusted(2, 2, _F._layers, "free-cumulant"),
        [MultilinearFamily(2, 2, {**_F.values, (2, 1): _F((2, 1)) + 1}),
         MultilinearFamily._trusted(3, 2, _F._layers, "moment")],
    ),
    "DeltaTensor": (
        DeltaTensor(2, {**_D, (2, 2, 2): 0}),
        DeltaTensor._trusted(2, dict(_D)),
        [DeltaTensor(2, {**_D, (2, 1, 2): Fraction(3)}), DeltaTensor(3, _D)],
    ),
}


@pytest.mark.parametrize("name", VALUE_CASES)
def test_values_are_immutable_and_compare_by_their_fields(name):
    checked, trusted, others = VALUE_CASES[name]
    assert type(checked).__name__ == type(trusted).__name__ == name
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(trusted, type(trusted).__slots__[0], 1)  # n or k
    if name == "MultilinearFamily":  # a family's kind stays out of equality
        assert checked.kind != trusted.kind
    assert checked == trusted and hash(checked) == hash(trusted)
    for other in others:
        assert other != trusted and trusted != other
    for name_b, (value_b, _, _) in VALUE_CASES.items():
        assert (checked == value_b) is (name_b == name)
    assert (checked == trusted._key()) is False and checked != object()


def test_family_json_round_trip():
    f = random_family(2, 3, seed=16)
    d = f.to_json_dict()
    assert d["unit"] == "one" and d["kind"] == "moment"
    g = MultilinearFamily.from_json_dict(d)
    assert g == f and g.kind == f.kind and g.unit == f.unit


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_family_json_round_trip_random(seed):
    f = random_family(2, 3, seed=seed, kind="infinitesimal")
    assert MultilinearFamily.from_json_dict(f.to_json_dict()) == f


def test_rational_strings_exact():
    f = build_family(1, 2, lambda w: Fraction(-7, 3) if len(w) == 2 else Fraction(4))
    d = f.to_json_dict()
    assert d["values"]["1"] == "4"
    assert d["values"]["1,1"] == "-7/3"


def test_delta_tensor():
    d = diagonal_delta(3)
    assert d.expand(2) == ((2, 2, Fraction(1)),)
    r = random_delta(2, seed=17)
    assert r == random_delta(2, seed=17)
    assert r != random_delta(2, seed=18)
    assert DeltaTensor.from_json_dict(r.to_json_dict()) == r


def test_delta_tensor_sparse_json():
    d = DeltaTensor(2, {(1, 2, 1): Fraction(1, 2)})
    blob = d.to_json_dict()
    assert blob == {
        "k": 2,
        "entries": [{"i": 1, "j": 2, "l": 1, "value": "1/2"}],
    }
    assert DeltaTensor.from_json_dict(blob).expand(2) == ()


def _family_blob():
    return random_family(1, 2, seed=19).to_json_dict()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: [d],  # not an object
        lambda d: {k: v for k, v in d.items() if k != "values"},
        lambda d: {k: v for k, v in d.items() if k != "k"},
        lambda d: {**d, "values": {**d["values"], "1": "one half"}},
        lambda d: {**d, "values": {**d["values"], "1": "1/0"}},
        lambda d: {**d, "values": {**d["values"], "1": None}},
        lambda d: {**d, "values": {"x": "1", **d["values"]}},
        lambda d: {**d, "values": list(d["values"])},
        lambda d: {**d, "k": "1"},
        lambda d: {**d, "kind": "no-such-kind"},
        lambda d: {**d, "values": {**d["values"], "7": "5"}},
        lambda d: {**d, "values": {**d["values"], "1,1,1": "5"}},
        lambda d: {**d, "values": {**d["values"], "01": "5"}},
    ],
    ids=["list", "no-values", "no-k", "bad-rational", "zero-denominator",
         "null-value", "bad-word", "values-list", "k-string", "unknown-kind",
         "letter-above-k", "word-above-N", "two-keys-one-word"],
)
def test_family_from_json_dict_rejects_malformed_data(mutate):
    with pytest.raises(NcprobError):
        MultilinearFamily.from_json_dict(mutate(_family_blob()))


@pytest.mark.parametrize("text", ["1e400", "-1e400", "Infinity", "NaN"])
def test_family_from_json_dict_rejects_an_infinite_value(text):
    # JSON decodes these to float infinities and NaN, which no Fraction holds
    blob = _family_blob()
    blob["values"]["1"] = json.loads(text)
    with pytest.raises(InvalidFamily, match="malformed family data"):
        MultilinearFamily.from_json_dict(blob)


def test_a_value_text_is_read_only_within_the_digits_it_can_be_written_in():
    # mantissa length plus exponent magnitude, the point counted, bounds the
    # digits of numerator and denominator by the int-to-str limit
    limit = sys.get_int_max_str_digits()

    def read(text):
        return MultilinearFamily.from_json_dict({"k": 1, "N": 1, "values": {"1": text}})

    assert read("1e400")((1,)) == 10 ** 400
    for text in (f"1e{limit - 1}", f"-.1e-{limit - 2}", "9" * limit):
        inside = read(text)
        assert read(inside.to_json_dict()["values"]["1"]) == inside
    for text in (f"1e{limit}", f".1e-{limit - 1}", f"{'9' * limit}.5", f"1e-{limit}"):
        with pytest.raises(InvalidFamily, match="^a value has too many digits to read in$"):
            read(text)
        with pytest.raises(InvalidFamily, match="^a value has too many digits to read in$"):
            MultilinearFamily(1, 1, {(1,): text})


@pytest.mark.parametrize(
    "blob",
    [
        "not an object",
        {"entries": []},
        {"k": 2},
        {"k": 2, "entries": [{"i": 1, "j": 1, "value": "1"}]},
        {"k": 2, "entries": [{"i": 1, "j": 1, "l": 1, "value": "half"}]},
        {"k": 2, "entries": [{"i": "1", "j": 1, "l": 1, "value": "1"}]},
        {"k": 2, "entries": {"i": 1}},
    ],
)
def test_delta_from_json_dict_rejects_malformed_data(blob):
    with pytest.raises(NcprobError):
        DeltaTensor.from_json_dict(blob)


@given(st.integers(1, 3), st.integers(1, 3), st.sampled_from(KINDS), st.data())
@settings(max_examples=60, deadline=None)
def test_family_json_text_round_trip(k, n, kind, data):
    values = {w: data.draw(st.fractions(max_denominator=50)) for w in all_words(k, n)}
    f = MultilinearFamily(k, n, values, kind=kind)
    g = MultilinearFamily.from_json_dict(json.loads(json.dumps(f.to_json_dict())))
    assert g == f and g.kind == f.kind and g.unit == f.unit


@given(st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_delta_json_text_round_trip(k, data):
    index = st.integers(1, k)
    entries = data.draw(
        st.dictionaries(st.tuples(index, index, index), st.fractions(max_denominator=50))
    )
    d = DeltaTensor(k, entries)
    assert DeltaTensor.from_json_dict(json.loads(json.dumps(d.to_json_dict()))) == d
