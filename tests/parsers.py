"""Readers of the polynomial text and JSON forms, for the tests.

qgrass writes polynomials (polyring.emit_text, polyring.emit_json) but no
command reads one, so the readers live here, where the tests use them to
read emitted output back: parse_text inverts emit_text and parse_json
inverts emit_json (schemas/polynomial.json), each refusing what the
format refuses with InvalidInputError.  The lattice-variable syntax is
lattice.parse_var's, the one reader of the command line.  Standard
library and qgrass only, so that importing it skips no test module.
"""

import json
import re
from fractions import Fraction
from typing import Optional

from qgrass import lattice
from qgrass.errors import InvalidInputError
from qgrass.polyring import Coeff, Polynomial, XVar, mono_from_pairs

_XVAR_RE = re.compile(r"^x\[([0-9]+),([0-9]+),([0-9]+)\]$")
_JVAR_RE = re.compile(r"^\(([0-9]+(?:,[0-9]+)*)\)$")


def parse_variable(text: str, kind: str, p: Optional[int] = None):
    text = text.strip()
    if kind == "X":
        m = _XVAR_RE.match(text)
        if not m:
            raise InvalidInputError(f"bad matrix variable {text!r}")
        return XVar(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    if kind == "C":
        return lattice.parse_var(text, p=p)
    if kind == "J":
        m = _JVAR_RE.match(text)
        if not m:
            raise InvalidInputError(f"bad sequence variable {text!r}")
        return lattice.YoungSeq(tuple(int(x) for x in m.group(1).split(",")))
    raise InvalidInputError(f"unknown variable universe {kind!r}")


def _parse_coeff(text: str) -> Coeff:
    """A coefficient "a" or "a/b" with b nonzero (schemas/polynomial.json)."""
    if not isinstance(text, str) or not re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", text):
        raise InvalidInputError(f"bad coefficient {text!r}")
    return Fraction(text) if "/" in text else int(text)


def _exponent(e) -> int:
    """A monomial exponent: an integer >= 1 (schemas/polynomial.json)."""
    if type(e) is not int or e < 1:
        raise InvalidInputError(f"exponent must be an integer >= 1, got {e!r}")
    return e


_TERM_SPLIT_RE = re.compile(r"\s+([+-])\s+")

# A factor ends at a '*' with no '*' next to it; '**' starts an exponent.
_FACTOR_SPLIT_RE = re.compile(r"(?<!\*)\*(?!\*)")


def parse_text(text: str, kind: str, p: Optional[int] = None) -> Polynomial:
    """Parse the canonical text form back into a polynomial."""
    text = text.strip()
    if text == "0":
        return Polynomial.zero()
    chunks = _TERM_SPLIT_RE.split(text)
    sign = 1
    first = chunks[0]
    if first.startswith("-"):
        sign = -1
        first = first[1:].strip()
    elif first.startswith("+"):
        first = first[1:].strip()
    terms = [(sign, first)]
    for i in range(1, len(chunks), 2):
        terms.append((1 if chunks[i] == "+" else -1, chunks[i + 1]))
    acc: dict = {}
    for sgn, body in terms:
        coeff: Coeff = sgn
        pairs = []
        for factor in _FACTOR_SPLIT_RE.split(body):
            factor = factor.strip()
            if not factor:
                raise InvalidInputError(f"empty term or factor in {text!r}")
            if re.fullmatch(r"[0-9]+(/[0-9]+)?", factor):
                coeff = coeff * _parse_coeff(factor)
                continue
            if "**" in factor:
                varpart, _, exppart = factor.rpartition("**")
                e = _exponent(int(exppart) if re.fullmatch("[0-9]+", exppart) else exppart)
            else:
                varpart, e = factor, 1
            pairs.append((parse_variable(varpart, kind, p=p), e))
        m = mono_from_pairs(pairs)
        acc[m] = acc.get(m, 0) + coeff
    return Polynomial(acc)


def _fields(obj, *keys) -> list:
    """The values of a JSON object that has exactly the given keys."""
    if not isinstance(obj, dict) or obj.keys() != set(keys):
        raise InvalidInputError(f"expected an object with the keys {keys}, got {obj!r}")
    return [obj[k] for k in keys]


def _list(obj, length: Optional[int] = None) -> list:
    """A JSON array, of the given length if one is given."""
    if not isinstance(obj, list) or length not in (None, len(obj)):
        size = "" if length is None else f" of length {length}"
        raise InvalidInputError(f"expected an array{size}, got {obj!r}")
    return obj


def parse_json(text: str) -> tuple[Polynomial, str]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"not JSON: {exc}") from None
    kind, terms = _fields(doc, "vars", "terms")
    if kind not in ("X", "C", "J"):
        raise InvalidInputError(f"unknown variable universe {kind!r}")
    acc: dict = {}
    for c, pairs in (_fields(t, "c", "m") for t in _list(terms)):
        pairs = [_list(pair, 2) for pair in _list(pairs)]
        m = mono_from_pairs((parse_variable(vs, kind), _exponent(e)) for vs, e in pairs)
        acc[m] = acc.get(m, 0) + _parse_coeff(c)
    return Polynomial(acc), kind
