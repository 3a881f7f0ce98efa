"""Exact sparse Laurent polynomials on a quarter-integer exponent lattice.

Exponents are stored internally multiplied by 4, so integer powers of the
bracket variable ``A`` and integer or half-integer powers of ``q`` share one
integer representation with no rational arithmetic anywhere.  Coefficients
are Python ints, so they never overflow.
"""

from __future__ import annotations

import re

from .errors import VariableMismatch

QUARTER = 4  # stored exponent = QUARTER * actual exponent


def text_pattern(var="q"):
    """Regex source of the text form LaurentPolynomial.to_text writes for a
    polynomial in ``var``: signed terms, each a magnitude then, unless the
    term is constant, ``*var^`` and a whole or a half-integer exponent."""
    term = rf"\d+(?:\*{var}\^(?:-?\d+|\(-?\d+/2\)))?"
    return rf"(?:0|-?{term}(?: [+-] {term})*)"


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial in a single variable ('A' or 'q').

    ``terms`` maps stored exponents (quarter units) to nonzero integer
    coefficients.  The empty map is the zero polynomial.
    """

    __slots__ = ("terms", "var")

    def __init__(self, terms=None, var="q"):
        if var not in ("A", "q"):
            raise ValueError("variable tag must be 'A' or 'q'")
        clean = {}
        if terms:
            for e, c in terms.items():
                if c != 0:
                    clean[int(e)] = int(c)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    @classmethod
    def _trusted(cls, terms, var):
        """Adopt ``terms`` without validating it.

        Only for dicts the package builds itself: int exponents, nonzero
        int coefficients, and no other reference to the dict kept.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "var", var)
        return p

    # --- constructors ---

    @classmethod
    def zero(cls, var="q"):
        return cls({}, var)

    @classmethod
    def one(cls, var="q"):
        return cls({0: 1}, var)

    @classmethod
    def monomial(cls, coeff, exponent, var="q"):
        """coeff * var**exponent with an integer exponent."""
        return cls({QUARTER * exponent: coeff}, var)

    # --- basic queries ---

    def is_zero(self):
        return not self.terms

    def is_integral(self):
        """True if every exponent is a whole power of the variable."""
        return all(e % QUARTER == 0 for e in self.terms)

    def min_exp4(self):
        return min(self.terms)

    def max_exp4(self):
        return max(self.terms)

    def int_coeffs(self):
        """Dense (min_degree, coefficients) window over whole exponents.

        Raises HalfIntegerExponent if any exponent is fractional.  The zero
        polynomial yields (0, [0]) and a constant yields (0, [c]).
        """
        from .errors import HalfIntegerExponent

        if not self.terms:
            return 0, [0]
        if not self.is_integral():
            raise HalfIntegerExponent(f"non-integer exponent in {self}")
        lo = min(self.terms)
        dense = [0] * ((max(self.terms) - lo) // QUARTER + 1)
        for e, c in self.terms.items():
            dense[(e - lo) // QUARTER] = c
        return lo // QUARTER, dense

    # --- arithmetic ---

    def _check_var(self, other):
        if self.var != other.var:
            raise VariableMismatch(f"{self.var} vs {other.var}")

    def __add__(self, other):
        self._check_var(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return LaurentPolynomial(terms, self.var)

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self.terms.items()}, self.var)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_var(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return LaurentPolynomial(terms, self.var)

    def substitute_inverse(self):
        """var -> 1/var: negate every exponent."""
        return LaurentPolynomial._trusted(
            {-e: c for e, c in self.terms.items()}, self.var)

    def __eq__(self, other):
        return (isinstance(other, LaurentPolynomial)
                and self.var == other.var and self.terms == other.terms)

    def __hash__(self):
        return hash((self.var, frozenset(self.terms.items())))

    # --- text form ---

    def to_text(self):
        """Canonical text form: `c*q^e` terms, exponents descending.

        Half-integer exponents render as `q^(p/2)`.  Round-trips through
        from_text exactly.
        """
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e % QUARTER == 0:
                body = f"{mag}*{self.var}^{e // QUARTER}"
            else:
                body = f"{mag}*{self.var}^({e // 2}/2)"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    _TERM_RE = re.compile(
        r"^(\d+)(?:\*([Aq])\^(?:(-?\d+)|\((-?\d+)/2\)))?$")

    @classmethod
    def from_text(cls, text, var="q"):
        text = text.strip()
        if text == "0":
            return cls.zero(var)
        tokens = text.replace("- ", "-").replace("+ ", "+").split()
        terms = {}
        for tok in tokens:
            sign = 1
            if tok[0] == "+":
                tok = tok[1:]
            elif tok[0] == "-":
                sign, tok = -1, tok[1:]
            m = cls._TERM_RE.match(tok)
            if not m:
                raise ValueError(f"bad polynomial term {tok!r} in {text!r}")
            mag, v, whole, half = m.groups()
            if v is not None and v != var:
                raise VariableMismatch(f"expected {var}, found {v}")
            if v is None:
                e = 0
            elif whole is not None:
                e = QUARTER * int(whole)
            else:
                e = 2 * int(half)
            terms[e] = terms.get(e, 0) + sign * int(mag)
        return cls(terms, var)

    def __repr__(self):
        return f"LaurentPolynomial({self.to_text()!r}, var={self.var!r})"
