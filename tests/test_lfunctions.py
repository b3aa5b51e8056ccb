import copy
import json
import math
import re
import time
import types
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zerogap.errors import DomainError, IncompletenessError, SchemaError, ValidationError
from zerogap.lfunctions import (
    _MR_LIMIT,
    FunctionalEquation,
    LFunctionData,
    LogDerivativeCoefficients,
    _is_prime,
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
    # a file whose JSON text opens with whitespace, named by a str
    p.write_text("  \n" + p.read_text())
    assert load_lfunction(str(p)) == again


@pytest.mark.parametrize("name", ["[draft].json", "{v2}.json"])
def test_file_name_opening_with_a_bracket_is_a_file(bundled, tmp_path, monkeypatch, name):
    # every str names a file, whatever its first character: a relative name
    # in the working directory
    monkeypatch.chdir(tmp_path)
    Path(name).write_bytes(bundled_example_path().read_bytes())
    assert load_lfunction(name) == load_lfunction(Path(name)) == bundled


@pytest.mark.parametrize("source", [b"{}", 3, None], ids=["bytes", "number", "none"])
def test_source_neither_file_name_nor_mapping_is_schema_error(source):
    with pytest.raises(SchemaError, match="file name or a mapping"):
        load_lfunction(source)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ValidationError, match="no such data file"):
        load_lfunction(tmp_path / "nope.json")


@pytest.mark.parametrize("path", ["dir", ""], ids=["directory", "empty"])
def test_unreadable_path_rejected(tmp_path, path):
    # a directory, and the empty path, which names the working directory;
    # the message quotes the name as given
    source = str(tmp_path) if path == "dir" else path
    with pytest.raises(ValidationError, match=re.escape(f"cannot read data file {source!r}: ")):
        load_lfunction(source)


def test_undecodable_file_is_schema_error(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"comment": "caf\xe9"}'.encode("latin-1"))
    with pytest.raises(SchemaError, match="not UTF-8 text"):
        load_lfunction(p)


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
    # nor above every bound: an infinite Q sends verify's residual to -inf
    for q in (math.inf, math.nan):
        with pytest.raises(ValidationError):
            replace(bundled.fe, conductor=q)


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


def test_self_dual_negative_zero_rejected_at_load(bundled):
    doc = serialize_lfunction(bundled)
    doc["zeros"] = dict(doc["zeros"], values=["-1.5"] + doc["zeros"]["values"])
    with pytest.raises(ValidationError, match="gamma >= 0"):
        load_lfunction(doc)
    # a list that is not self-dual stores both signs and loads as given
    doc["zeros"]["self_dual"] = False
    assert load_lfunction(doc).zeros[:2] == (-1.5, bundled.zeros[0])


def test_top_level_json_must_be_an_object(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    for source in (p, str(p)):
        with pytest.raises(SchemaError, match="top-level"):
            load_lfunction(source)


def test_spectral_left_halfplane_rejected(bundled):
    doc = serialize_lfunction(bundled)
    doc["spectral"] = [dict(s) for s in doc["spectral"]]
    doc["spectral"][0]["re"] = -0.3
    with pytest.raises(ValidationError):
        load_lfunction(doc)
    for mu in (complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0)):
        with pytest.raises(ValidationError):
            replace(bundled.fe, spectral=(mu,) + bundled.fe.spectral[1:])


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
    pytest.param(("coefficients", 0, "n"), 0, id="n-zero"),
    pytest.param(("coefficients", 1, "n"), -3, id="n-negative"),
    pytest.param(("degree",), True, id="degree-bool"),
    pytest.param(("conductor", "value"), True, id="conductor-bool"),
    pytest.param(("zeros", "t_max"), True, id="t-max-bool"),
    pytest.param(("conductor", "value"), 10**400, id="conductor-beyond-float"),
    pytest.param(("conductor", "value"), json.loads("1e400"), id="conductor-1e400"),
    pytest.param(("conductor", "value"), json.loads("Infinity"), id="conductor-infinity"),
    pytest.param(("spectral", 0, "re"), json.loads("1e400"), id="spectral-re-1e400"),
    pytest.param(("spectral", 1, "im"), json.loads("-Infinity"), id="spectral-im-infinity"),
    pytest.param(("coefficients", 1, "re"), json.loads("-1e400"), id="coefficient-re-1e400"),
    pytest.param(("coefficients", 2, "im"), json.loads("Infinity"), id="coefficient-im-infinity"),
    pytest.param(("root_number", "im"), json.loads("1e400"), id="root-number-1e400"),
    pytest.param(("conductor", "assumed"), "no", id="conductor-assumed-string"),
    pytest.param(("root_number", "assumed"), 1, id="root-number-assumed-int"),
])
def test_malformed_field_is_schema_error(path, new):
    with pytest.raises(SchemaError):
        load_lfunction(_mutated(_BUNDLED_DOC, path, new))


def _as_mapping(node, mapping):
    """The document with every JSON object turned into a `mapping`."""
    if isinstance(node, dict):
        return mapping({k: _as_mapping(v, mapping) for k, v in node.items()})
    if isinstance(node, list):
        return [_as_mapping(v, mapping) for v in node]
    return node


# mappings other than the dict that json.loads makes, which the loader takes
# by the ABC isinstance
MAPPINGS = pytest.mark.parametrize("mapping", [types.MappingProxyType, OrderedDict],
                                   ids=["proxy", "ordered"])


@MAPPINGS
def test_any_mapping_loads_as_the_plain_document(bundled, mapping):
    assert load_lfunction(_as_mapping(_BUNDLED_DOC, mapping)) == bundled


@MAPPINGS
@pytest.mark.parametrize("path", [("degree",), ("coefficients", 0, "n"), ("conductor", "value"),
                                  ("zeros", "t_max")], ids=lambda p: ".".join(map(str, p)))
def test_true_is_no_number_in_any_mapping(path, mapping):
    # a bool is an int to isinstance, but no degree, index, conductor or
    # height; the plain-dict cases are test_malformed_field_is_schema_error's
    with pytest.raises(SchemaError):
        load_lfunction(_as_mapping(_mutated(_BUNDLED_DOC, path, True), mapping))


def test_bundled_example_path_is_stable():
    first, second = bundled_example_path(), bundled_example_path()
    assert first == second and first.is_file()


def test_assumed_flags_default_to_false():
    doc = _mutated(_mutated(_BUNDLED_DOC, ("conductor", "assumed"), _DELETE),
                   ("root_number", "assumed"), _DELETE)
    fe = load_lfunction(doc).fe
    assert fe.conductor_assumed is False and fe.root_number_assumed is False


def test_infinite_t_max_accepted():
    doc = _mutated(_BUNDLED_DOC, ("zeros", "t_max"), math.inf)
    data = load_lfunction(doc)
    assert data.t_max == math.inf
    # -inf is no completeness height: verify would read it as a complete list
    with pytest.raises(SchemaError):
        load_lfunction(_mutated(_BUNDLED_DOC, ("zeros", "t_max"), -math.inf))
    with pytest.raises(ValidationError):
        replace(data, t_max=-math.inf)


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


def test_c_coefficients_refuses_n_below_one(bundled):
    for n in (0, -5):
        with pytest.raises(DomainError, match="N must be at least 1"):
            c_coefficients(bundled, n)
    # no prime power up to 1
    assert c_coefficients(bundled, 1) == LogDerivativeCoefficients(values={}, bound=1)


def test_c_coefficients_gap_detection(bundled):
    with pytest.raises(IncompletenessError) as info:
        c_coefficients(bundled, 13)
    assert info.value.gaps == [8]


def test_c_coefficients_gaps_beyond_the_data_are_bounded(bundled):
    # the data ends at a_13, so 17 is the first prime past it: only primes
    # up to 17 are expanded, whatever N, and the message covers the rest
    with pytest.raises(IncompletenessError) as info:
        c_coefficients(bundled, 10**8)
    gaps = info.value.gaps
    assert gaps[:3] == [8, 16, 17] and 19 not in gaps and max(gaps) <= 10**8
    assert "prime above 17" in str(info.value)
    with pytest.raises(IncompletenessError) as info:
        c_coefficients(bundled, 23)
    assert info.value.gaps == [8, 16, 17]
    assert c_coefficients(bundled, 10**8, skip_gaps=True) == c_coefficients(bundled, 23,
                                                                              skip_gaps=True)


def test_c_coefficients_skip_gaps(bundled):
    c = c_coefficients(bundled, 13, skip_gaps=True)
    assert c.bound == 7  # first uncovered prime power caps the guarantee
    assert 8 not in c.values
    assert 9 in c.values and 13 in c.values


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
        FunctionalEquation(degree=0, conductor=1.0, spectral=(), root_number=1 + 0j)
    with pytest.raises(ValidationError):
        FunctionalEquation(degree=2, conductor=1.0, spectral=(0j,), root_number=1 + 0j)
    with pytest.raises(ValidationError):
        FunctionalEquation(degree=True, conductor=1.0, spectral=(0j,), root_number=1 + 0j)
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
    # a non-finite one is refused
    with pytest.raises(ValidationError):
        LFunctionData(fe=fe, coefficients={1: 1 + 0j, 2: complex(math.inf, 0.0)},
                      zeros=(), zero_strings=(), t_max=math.inf, self_dual=True)


def _trial_division_is_prime(n):
    # the trial division _is_prime used to be, kept as the oracle
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n) != _trial_division_is_prime(n)] == []


def test_is_prime_large():
    assert _is_prime(2**61 - 1)
    assert not _is_prime((2**31 - 1) * 1000003)
    # a strong pseudoprime to every prime base up to 37 (399165290221 *
    # 798330580441): base 41 is what makes the test exact up to _MR_LIMIT
    assert not _is_prime(318665857834031151167461)
    with pytest.raises(ValueError):
        _is_prime(_MR_LIMIT)


def test_large_prime_index_loads_fast():
    # a large prime n with |a_n| above the degree used to cost O(sqrt n)
    doc = copy.deepcopy(_BUNDLED_DOC)
    doc["coefficients"].append({"n": 2**61 - 1, "re": 5.0, "im": 0.0})
    start = time.perf_counter()
    with pytest.warns(UserWarning, match="exceeds the degree"):
        load_lfunction(doc)
    assert time.perf_counter() - start < 1.0
