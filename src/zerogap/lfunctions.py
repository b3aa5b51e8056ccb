"""L-function data model: functional-equation data, Dirichlet coefficients,
zero lists, and log-derivative coefficients c(n).

File format (UTF-8 JSON): fields `degree` (int), `conductor` {value,
assumed}, `root_number` {re, im, assumed}, `spectral` (array of {re, im}),
`coefficients` (array of {n, re, im}), `zeros` {values: array of decimal
strings, t_max, self_dual}, optional `comment`.  Zero ordinates are decimal
strings so the stored precision survives a round trip exactly.

c(n) is defined by -L'/L(s) = sum c(n) n^{-s} ... with the sign convention
c(p^k) = -(sum of k-th powers of the local roots) * log p, recovered from
the a_{p^j} by the Newton-identity recurrence for power sums in terms of
complete homogeneous symmetric functions:

    p_k = k h_k - sum_{j=1}^{k-1} h_j p_{k-j},    h_j = a_{p^j}.

For a_{p^k} = 1 (zeta local data) this gives c(p^k) = -log p, the classical
von Mangoldt values.
"""

from __future__ import annotations

import cmath
import json
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Dict, Tuple, Union

from .errors import DomainError, IncompletenessError, SchemaError, ValidationError

__all__ = [
    "FunctionalEquation",
    "LFunctionData",
    "LogDerivativeCoefficients",
    "bundled_example_path",
    "c_coefficients",
    "extend_multiplicatively",
    "load_lfunction",
    "serialize_lfunction",
]

_UNIT_TOL = 1e-12

# the first 13 primes as Miller-Rabin bases decide primality exactly below
# _MR_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017); the first 12 fail at 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


@dataclass(frozen=True)
class FunctionalEquation:
    """Degree, conductor, spectral parameters, root number.

    `conductor_assumed` / `root_number_assumed` flag values that are
    conventions rather than data; the verifier reports the conductor its
    residual would imply, which is how an assumed Q stays checkable.
    """

    degree: int
    conductor: float
    spectral: Tuple[complex, ...]
    root_number: complex
    conductor_assumed: bool = False
    root_number_assumed: bool = False

    def __post_init__(self):
        if not (type(self.degree) is int and self.degree >= 1):  # a bool is no degree
            raise ValidationError("degree must be a positive integer")
        if len(self.spectral) != self.degree:
            raise ValidationError(
                f"spectral parameter count {len(self.spectral)} != degree {self.degree}"
            )
        for mu in self.spectral:
            if not (cmath.isfinite(mu) and mu.real >= -_UNIT_TOL):
                raise ValidationError(f"finite mu with Re(mu) >= 0 violated by {mu!r}")
        if not abs(abs(self.root_number) - 1.0) <= _UNIT_TOL:
            raise ValidationError(f"|root_number| = 1 violated: {self.root_number!r}")
        if not (1.0 <= self.conductor < math.inf):
            raise ValidationError(f"finite conductor >= 1 violated: {self.conductor!r}")


@dataclass(frozen=True)
class LFunctionData:
    """A functional equation plus coefficient and zero data.

    `zeros` holds the parsed ordinates; `zero_strings` the decimal strings
    they were loaded from.  `t_max` is the completeness height of the list.
    A self-dual list stores only ordinates >= 0; its zeros are +-gamma.
    Immutable after load; safe to share across threads.
    """

    fe: FunctionalEquation
    coefficients: Mapping[int, complex]
    zeros: Tuple[float, ...]
    zero_strings: Tuple[str, ...]
    t_max: float
    self_dual: bool
    comment: str = ""

    def __post_init__(self):
        a1 = self.coefficients.get(1)
        if a1 is None or a1 != 1:
            raise ValidationError("a_1 = 1 normalization violated")
        if not self.t_max > -math.inf:
            raise ValidationError(f"t_max must be a height or +inf, got {self.t_max!r}")
        zs = self.zeros
        if any(zs[i] >= zs[i + 1] for i in range(len(zs) - 1)):
            raise ValidationError("zeros must be strictly increasing")
        if self.self_dual and min(zs, default=0.0) < 0:
            raise ValidationError("self-dual zero lists store only gamma >= 0")
        d = self.fe.degree
        for n, a in self.coefficients.items():
            if not cmath.isfinite(a):
                raise ValidationError(f"a_{n} = {a!r} is not finite")
            # beyond the primality test's range the check is skipped: no
            # consumer reads a coefficient that far out
            if abs(a) > d and n < _MR_LIMIT and _is_prime(n):
                warnings.warn(
                    f"|a_{n}| = {abs(a):.6g} exceeds the degree {d}", stacklevel=2
                )


@dataclass(frozen=True)
class LogDerivativeCoefficients:
    """c(n) supported on prime powers up to the bound; zero elsewhere."""

    values: Mapping[int, complex]
    bound: int

    def __call__(self, n: int) -> complex:
        return self.values.get(n, 0j)


@cache
def bundled_example_path() -> Path:
    """Path of the bundled degree-4 example data file, resolved once."""
    return Path(str(resources.files("zerogap") / "data" / "fkl_degree4.json"))


def _is_kind(val, kind) -> bool:
    # a parsed JSON object is a dict: no ABC isinstance for it.  No bool is an int
    if type(val) is dict:
        return kind is Mapping
    return isinstance(val, kind) and not (kind is int and isinstance(val, bool))


def _require(doc, key: str, kind, where: str, admit_inf: bool = False):
    if not _is_kind(doc, Mapping):
        raise SchemaError(f"{where} must be an object")
    if key not in doc:
        raise SchemaError(f"missing field '{key}' in {where}")
    val = doc[key]
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise SchemaError(f"field '{key}' in {where} must be a number")
        try:
            num = float(val)
        except OverflowError:
            raise SchemaError(f"field '{key}' in {where} is beyond the float range") from None
        if not (math.isfinite(num) or (admit_inf and num == math.inf)):
            raise SchemaError(f"field '{key}' in {where} is {num!r}")
        return num
    if not _is_kind(val, kind):
        raise SchemaError(f"field '{key}' in {where} must be {kind.__name__}")
    return val


def load_lfunction(source: Union[str, Path, Mapping]) -> LFunctionData:
    """Load and validate an L-function document from a path, JSON text, or
    an already-parsed mapping.  A str whose first non-space character is
    ``{`` or ``[`` is JSON text; any other str is a file name.  A file that
    is missing or cannot be read raises ValidationError, and one that is
    not UTF-8 text SchemaError."""
    if _is_kind(source, Mapping):
        doc = source
    else:
        if isinstance(source, Path) or (isinstance(source, str)
                                        and not source.lstrip().startswith(("{", "["))):
            p = Path(source)
            try:
                text = p.read_text(encoding="utf-8")
            except FileNotFoundError:
                raise ValidationError(f"no such data file: {p}") from None
            except OSError as e:
                raise ValidationError(f"cannot read data file {p}: {e.strerror}") from None
            except UnicodeDecodeError as e:
                raise SchemaError(f"data file {p} is not UTF-8 text: {e.reason} at byte "
                                  f"{e.start}") from None
        else:
            text = str(source)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise SchemaError(f"JSON parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not _is_kind(doc, Mapping):
        raise SchemaError("top-level JSON value must be an object")

    degree = _require(doc, "degree", int, "document")
    cond = _require(doc, "conductor", Mapping, "document")
    q = _require(cond, "value", float, "conductor")
    q_assumed = _require(cond, "assumed", bool, "conductor") if "assumed" in cond else False
    rn = _require(doc, "root_number", Mapping, "document")
    eps = complex(_require(rn, "re", float, "root_number"),
                  _require(rn, "im", float, "root_number"))
    eps_assumed = _require(rn, "assumed", bool, "root_number") if "assumed" in rn else False
    spect = _require(doc, "spectral", list, "document")
    spectral = tuple(
        complex(_require(m, "re", float, f"spectral[{i}]"),
                _require(m, "im", float, f"spectral[{i}]"))
        for i, m in enumerate(spect)
    )
    fe = FunctionalEquation(
        degree=degree, conductor=q, spectral=spectral, root_number=eps,
        conductor_assumed=q_assumed, root_number_assumed=eps_assumed,
    )

    coeffs_raw = _require(doc, "coefficients", list, "document")
    coefficients: Dict[int, complex] = {}
    for i, c in enumerate(coeffs_raw):
        n = _require(c, "n", int, f"coefficients[{i}]")
        if n < 1:
            raise SchemaError(f"coefficients[{i}]: n must be >= 1")
        if n in coefficients:
            raise SchemaError(f"coefficients[{i}]: duplicate n = {n}")
        coefficients[n] = complex(_require(c, "re", float, f"coefficients[{i}]"),
                                  _require(c, "im", float, f"coefficients[{i}]"))

    zblock = _require(doc, "zeros", Mapping, "document")
    zstrings = _require(zblock, "values", list, "zeros")
    zeros = []
    for i, s in enumerate(zstrings):
        try:
            z = float(s) if isinstance(s, str) else math.nan
        except ValueError:
            z = math.nan
        if not math.isfinite(z):
            raise SchemaError(f"zeros.values[{i}] must be a finite decimal string, got {s!r}")
        zeros.append(z)
    t_max = _require(zblock, "t_max", float, "zeros", admit_inf=True)
    self_dual = _require(zblock, "self_dual", bool, "zeros")

    return LFunctionData(
        fe=fe,
        coefficients=coefficients,
        zeros=tuple(zeros),
        zero_strings=tuple(zstrings),
        t_max=t_max,
        self_dual=self_dual,
        comment=str(doc.get("comment", "")),
    )


def serialize_lfunction(data: LFunctionData) -> dict:
    """Document form of the data; numeric fields keep full stored precision
    (zero ordinates reuse their original decimal strings)."""
    return {
        "degree": data.fe.degree,
        "conductor": {"value": data.fe.conductor, "assumed": data.fe.conductor_assumed},
        "root_number": {
            "re": data.fe.root_number.real,
            "im": data.fe.root_number.imag,
            "assumed": data.fe.root_number_assumed,
        },
        "spectral": [{"re": m.real, "im": m.imag} for m in data.fe.spectral],
        "coefficients": [
            {"n": n, "re": a.real, "im": a.imag}
            for n, a in sorted(data.coefficients.items())
        ],
        "zeros": {
            "values": list(data.zero_strings),
            "t_max": data.t_max,
            "self_dual": data.self_dual,
        },
        "comment": data.comment,
    }


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < _MR_LIMIT; larger n raise ValueError."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of n >= {_MR_LIMIT} is not decided here")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_upto(n: int):
    return [p for p in range(2, n + 1) if _is_prime(p)]


def _factorize(n: int):
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def extend_multiplicatively(data: LFunctionData, N: int) -> LFunctionData:
    """Fill in composite coefficients a_{mn} = a_m a_n for coprime parts up
    to N; prime-power entries are data and are never synthesized.  Existing
    entries are left untouched."""
    coeffs = dict(data.coefficients)
    gaps = set()
    for n in range(2, N + 1):
        if n in coeffs:
            continue
        parts = _factorize(n)
        if len(parts) < 2:
            continue  # prime power: required data, not derivable
        missing = [p**e for (p, e) in parts if p**e not in coeffs]
        if missing:
            gaps.update(missing)
            continue
        val = 1 + 0j
        for (p, e) in parts:
            val *= coeffs[p**e]
        coeffs[n] = val
    if gaps:
        raise IncompletenessError(
            "missing prime-power coefficients: "
            + ", ".join(f"a_{m}" for m in sorted(gaps)),
            gaps=sorted(gaps),
        )
    return replace(data, coefficients=coeffs)


def c_coefficients(data: LFunctionData, N: int, *,
                   skip_gaps: bool = False) -> LogDerivativeCoefficients:
    """Log-derivative coefficients c(p^k) for prime powers p^k <= N.

    Requires a_p, ..., a_{p^k} for every p^k <= N; anything missing raises
    an incompleteness error listing the gaps.  Every prime past the last
    coefficient given is a gap, so only the primes up to the first of them,
    P, are expanded, whatever N (Bertrand's postulate puts P below twice
    the last n given), and the gaps listed are those of the primes up to P.
    With skip_gaps=True each prime is expanded only up to its first missing
    power and the returned bound shrinks to the last n with complete
    coverage, so downstream consumers cannot mistake an omitted c(n) for
    zero.  N < 1 raises DomainError; N = 1 holds no prime power.
    """
    if N < 1:
        raise DomainError(f"N must be at least 1, got {N}")
    values: Dict[int, complex] = {}
    gaps = []
    first_skipped = None
    top = max(data.coefficients, default=1) + 1
    while top < N and not _is_prime(top):
        top += 1
    for p in _primes_upto(min(N, top)):
        k_max = int(math.floor(math.log(N) / math.log(p) + 1e-12))
        k_top, missing = k_max, []
        for j in range(1, k_max + 1):
            if p**j not in data.coefficients:
                missing.append(p**j)
                k_top = min(k_top, j - 1)
        if missing:
            gaps.extend(missing)
            if first_skipped is None or missing[0] < first_skipped:
                first_skipped = missing[0]
            if not skip_gaps:
                continue
        h = [1 + 0j] + [complex(data.coefficients[p**j]) for j in range(1, k_top + 1)]
        logp = math.log(p)
        psums = [0j]
        for k in range(1, k_top + 1):
            pk = k * h[k] - sum(h[j] * psums[k - j] for j in range(1, k))
            psums.append(pk)
            values[p**k] = -pk * logp
    if gaps and not skip_gaps:
        beyond = (f", and a_n for every prime power n <= {N} of a prime above {top}"
                  if top < N else "")
        raise IncompletenessError(
            "insufficient local data for c(n): missing "
            + ", ".join(f"a_{m}" for m in sorted(gaps)) + beyond,
            gaps=sorted(gaps),
        )
    bound = N if first_skipped is None else min(N, first_skipped - 1)
    return LogDerivativeCoefficients(values=values, bound=bound)
