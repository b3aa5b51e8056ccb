import copy
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from zerogap.errors import IncompletenessError, SchemaError, ValidationError
from zerogap.lfunctions import (
    FunctionalEquation,
    LFunctionData,
    bundled_example_path,
    c_coefficients,
    extend_multiplicatively,
    load_lfunction,
    serialize_lfunction,
)

NU1 = 4.72095103638565339773
NU2 = 12.4687522615131728082


def test_bundled_shape(bundled):
    fe = bundled.fe
    assert fe.degree == 4
    assert fe.conductor == 1.0
    assert fe.root_number == 1.0 + 0.0j
    ims = sorted(m.imag for m in fe.spectral)
    assert ims == pytest.approx([-NU2, -NU1, NU1, NU2], abs=1e-12)
    assert all(m.real == 0.0 for m in fe.spectral)
    assert sum(m.imag for m in fe.spectral) == 0.0
    assert bundled.coefficients[1] == 1.0 + 0.0j
    assert bundled.coefficients[2].real == pytest.approx(1.34260324197021624329, abs=1e-15)
    assert bundled.coefficients[13].real == pytest.approx(-0.8824356594477, abs=1e-12)


def test_bundled_zero_list(bundled):
    zs = bundled.zeros
    assert len(zs) == 11
    assert all(0.0 < z < 30.0 for z in zs)
    assert list(zs) == sorted(zs)
    assert bundled.t_max == 30.0
    assert bundled.self_dual is True
    assert zs[0] == pytest.approx(14.4960615091, abs=1e-12)


def test_roundtrip_preserves_zero_strings(bundled):
    doc = serialize_lfunction(bundled)
    again = load_lfunction(doc)
    assert again == bundled
    assert doc["zeros"]["values"][0] == "14.4960615091"


def test_roundtrip_through_json_text(bundled, tmp_path):
    p = tmp_path / "copy.json"
    p.write_text(json.dumps(serialize_lfunction(bundled)))
    again = load_lfunction(p)
    assert again.fe == bundled.fe
    assert again.zeros == bundled.zeros


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ValidationError):
        load_lfunction(tmp_path / "nope.json")


def test_malformed_json_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"degree": 4,,}')
    with pytest.raises(SchemaError) as info:
        load_lfunction(p)
    assert "line" in str(info.value)


def test_duplicate_coefficient_rejected(bundled):
    doc = serialize_lfunction(bundled)
    doc["coefficients"] = doc["coefficients"] + [{"n": 2, "re": 0.0, "im": 0.0}]
    with pytest.raises(SchemaError):
        load_lfunction(doc)


def test_leading_coefficient_must_be_one(bundled):
    doc = serialize_lfunction(bundled)
    doc["coefficients"] = [dict(c) for c in doc["coefficients"]]
    for c in doc["coefficients"]:
        if c["n"] == 1:
            c["re"] = 2.0
    with pytest.raises(ValidationError):
        load_lfunction(doc)


def test_degree_spectral_mismatch_rejected(bundled):
    doc = serialize_lfunction(bundled)
    doc["degree"] = 3
    with pytest.raises(ValidationError):
        load_lfunction(doc)


def test_conductor_below_one_rejected(bundled):
    doc = serialize_lfunction(bundled)
    doc["conductor"] = dict(doc["conductor"], value=0.5)
    with pytest.raises(ValidationError):
        load_lfunction(doc)


def test_root_number_must_be_unimodular(bundled):
    doc = serialize_lfunction(bundled)
    doc["root_number"] = {"re": 0.5, "im": 0.0, "assumed": True}
    with pytest.raises(ValidationError):
        load_lfunction(doc)


def test_zeros_must_increase(bundled):
    doc = serialize_lfunction(bundled)
    doc["zeros"] = dict(doc["zeros"])
    doc["zeros"]["values"] = list(doc["zeros"]["values"])
    doc["zeros"]["values"][1] = "14.0"
    with pytest.raises(ValidationError):
        load_lfunction(doc)


def test_spectral_left_halfplane_rejected(bundled):
    doc = serialize_lfunction(bundled)
    doc["spectral"] = [dict(s) for s in doc["spectral"]]
    doc["spectral"][0]["re"] = -0.3
    with pytest.raises(ValidationError):
        load_lfunction(doc)


_BUNDLED_DOC = json.loads(bundled_example_path().read_text())
_DELETE = object()


def _mutated(doc, path, new):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if new is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


@pytest.mark.parametrize("path,new", [
    pytest.param(("spectral", 0), 3.0, id="spectral-entry-not-object"),
    pytest.param(("coefficients", 1), 2.0, id="coefficient-not-object"),
    pytest.param(("zeros", "values", 0), "14.49x", id="zero-unparseable"),
    pytest.param(("zeros", "values", 0), "nan", id="zero-nan"),
    pytest.param(("zeros", "values", 10), "inf", id="zero-inf"),
    pytest.param(("zeros", "t_max"), math.nan, id="t-max-nan"),
    pytest.param(("coefficients", 0, "n"), True, id="n-bool"),
    pytest.param(("degree",), True, id="degree-bool"),
    pytest.param(("conductor", "value"), 10**400, id="conductor-beyond-float"),
])
def test_malformed_field_is_schema_error(path, new):
    with pytest.raises(SchemaError):
        load_lfunction(_mutated(_BUNDLED_DOC, path, new))


def test_infinite_t_max_accepted():
    doc = _mutated(_BUNDLED_DOC, ("zeros", "t_max"), math.inf)
    assert load_lfunction(doc).t_max == math.inf


def _field_paths(node, path=()):
    if path:
        yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _field_paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _field_paths(v, path + (i,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["nan", "-inf", "1e400", "14.2", ""]) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "re", "im", "value"]) | st.text(max_size=3),
                      inner, max_size=3),
    max_leaves=4,
)


@pytest.mark.filterwarnings("ignore:.*exceeds the degree:UserWarning")
@settings(max_examples=200)
@given(st.sampled_from(list(_field_paths(_BUNDLED_DOC))), st.just(_DELETE) | _JSON_VALUES)
def test_single_field_mutation_loads_or_raises_schema_error(path, new):
    # anything a malformed document can do is one of the two documented errors
    try:
        load_lfunction(_mutated(_BUNDLED_DOC, path, new))
    except (SchemaError, ValidationError):
        pass


def test_multiplicative_extension_exact(bundled):
    ext = extend_multiplicatively(bundled, 13)
    a = bundled.coefficients
    assert ext.coefficients[6] == a[2] * a[3]
    assert ext.coefficients[10] == a[2] * a[5]
    assert ext.coefficients[12] == a[4] * a[3]
    assert ext.coefficients[6].real == pytest.approx(-0.25167354041585044, abs=1e-15)
    # prime powers are never synthesized
    assert 8 not in ext.coefficients


def test_multiplicative_extension_reports_gaps(bundled):
    with pytest.raises(IncompletenessError) as info:
        extend_multiplicatively(bundled, 24)
    assert info.value.gaps == [8]


def test_c_coefficients_bundled(bundled):
    c = c_coefficients(bundled, 7)
    assert c.bound == 7
    assert c(2) == pytest.approx(-bundled.coefficients[2] * math.log(2), abs=1e-15)
    assert c(2).real == pytest.approx(-0.9306216517822974, abs=1e-12)
    assert c(4).real == pytest.approx(0.6055821733165855, abs=1e-12)
    assert c(6) == 0j  # composite, not a prime power
    assert c(5).real == pytest.approx(0.002620059715, abs=1e-10)


def test_c_coefficients_gap_detection(bundled):
    with pytest.raises(IncompletenessError) as info:
        c_coefficients(bundled, 13)
    assert info.value.gaps == [8]


def test_c_coefficients_skip_gaps(bundled):
    c = c_coefficients(bundled, 13, skip_gaps=True)
    assert c.bound == 7  # first uncovered prime power caps the guarantee
    assert 8 not in c.values
    assert 9 in c.values and 13 in c.values
    assert c(9).real == pytest.approx(1.056860485, abs=1e-8)


def _synthetic(coeffs, degree=1, spectral=(0j,)):
    fe = FunctionalEquation(degree=degree, conductor=1.0,
                            spectral=tuple(spectral), root_number=1.0 + 0.0j)
    return LFunctionData(fe=fe, coefficients={1: 1.0 + 0j, **coeffs},
                         zeros=(), zero_strings=(), t_max=math.inf, self_dual=True)


def test_c_coefficients_zeta_like():
    # all a_{p^k} = 1 must give c(p^k) = -log p
    data = _synthetic({n: 1.0 + 0j for n in range(2, 17)})
    c = c_coefficients(data, 16)
    for p in (2, 3, 5, 7, 11, 13):
        assert c(p) == pytest.approx(-math.log(p), abs=1e-14)
    for pk, p in ((4, 2), (8, 2), (16, 2), (9, 3)):
        assert c(pk) == pytest.approx(-math.log(p), abs=1e-14)


@given(st.complex_numbers(max_magnitude=0.99, allow_nan=False, allow_infinity=False))
def test_c_coefficients_degree_one_powers(w):
    # single Euler root w: c(p^k) = -w^k log p
    data = _synthetic({2: w, 3: 0j, 4: w * w})
    c = c_coefficients(data, 4)
    assert abs(c(2) - (-w * math.log(2))) < 1e-12
    assert abs(c(4) - (-w * w * math.log(2))) < 1e-12


def test_functional_equation_validation():
    with pytest.raises(ValidationError):
        FunctionalEquation(degree=2, conductor=1.0, spectral=(0j,), root_number=1 + 0j)
    with pytest.raises(ValidationError):
        FunctionalEquation(degree=1, conductor=0.5, spectral=(0j,), root_number=1 + 0j)
    with pytest.raises(ValidationError):
        FunctionalEquation(degree=1, conductor=1.0, spectral=(-0.2 + 0j,), root_number=1 + 0j)
    with pytest.raises(ValidationError):
        FunctionalEquation(degree=1, conductor=1.0, spectral=(0j,), root_number=2 + 0j)


def test_large_prime_coefficient_warns():
    fe = FunctionalEquation(degree=1, conductor=1.0, spectral=(0j,), root_number=1 + 0j)
    with pytest.warns(UserWarning):
        LFunctionData(fe=fe, coefficients={1: 1 + 0j, 2: 5.0 + 0j},
                      zeros=(), zero_strings=(), t_max=math.inf, self_dual=True)
