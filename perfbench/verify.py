"""Correctness gate for the benchmark's jobs.

A job's expected result is its exit code, the SHA-256 of its report and the
parsed report itself.  A byte-equal report that parses to the recorded one
passes at once.  Otherwise the report must have the same structure, and
every rational-function coefficient (``lambda_rat`` and ``residual``
fields) must equal the recorded one as a rational function in l1, l2, l3;
such a job passes as "rendering changed".
The parser and the polynomial arithmetic here are the benchmark's own, so a
change to dt4vertex's algebra cannot make its own output look right.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

PASS = "pass"
RENDERING_CHANGED = "report_rendering_changed"
FAIL = "fail"

RATIONAL_KEYS = ("lambda_rat", "residual")

_TOKEN = re.compile(r"\s*(?:(\d+)|l([123])|(.))")


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- polynomials in l1, l2, l3: {exponent triple: Fraction}

ONE = {(0, 0, 0): Fraction(1)}


def _padd(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _pmul(a, b):
    out = {}
    for (a1, a2, a3), ca in a.items():
        for (b1, b2, b3), cb in b.items():
            m = (a1 + b1, a2 + b2, a3 + b3)
            v = out.get(m, 0) + ca * cb
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


class _Parser:
    """Recursive descent over + - * / ^ ( ) integers and l1..l3; a value is
    a (numerator, denominator) pair of polynomials."""

    def __init__(self, text):
        self.tokens = []
        for num, var, op in _TOKEN.findall(text):
            if num:
                self.tokens.append(("n", int(num)))
            elif var:
                self.tokens.append(("v", int(var) - 1))
            elif op.strip():
                self.tokens.append(("o", op))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self, op=None):
        tok = self.peek()
        if op is not None and tok != ("o", op):
            raise ValueError(f"expected {op!r} at token {self.pos}")
        self.pos += 1
        return tok

    def parse(self):
        value = self.sum()
        if self.pos != len(self.tokens):
            raise ValueError(f"trailing input at token {self.pos}")
        return value

    def sum(self):
        sign = 1
        if self.peek() in (("o", "+"), ("o", "-")):
            sign = -1 if self.take()[1] == "-" else 1
        num, den = self.product()
        if sign < 0:
            num = {m: -c for m, c in num.items()}
        while self.peek() in (("o", "+"), ("o", "-")):
            sign = -1 if self.take()[1] == "-" else 1
            n2, d2 = self.product()
            if d2 == den:
                num = _padd(num, n2, sign)
            else:
                num = _padd(_pmul(num, d2), _pmul(n2, den), sign)
                den = _pmul(den, d2)
        return num, den

    def product(self):
        num, den = self.power()
        while self.peek() in (("o", "*"), ("o", "/")):
            op = self.take()[1]
            n2, d2 = self.power()
            if op == "*":
                num, den = _pmul(num, n2), _pmul(den, d2)
            else:
                if not n2:
                    raise ZeroDivisionError("division by zero in a coefficient")
                num, den = _pmul(num, d2), _pmul(den, n2)
        return num, den

    def power(self):
        num, den = self.atom()
        if self.peek() == ("o", "^"):
            self.take()
            kind, exp = self.take()
            if kind != "n":
                raise ValueError("exponent must be a non-negative integer")
            rn, rd = ONE, ONE
            for _ in range(exp):
                rn, rd = _pmul(rn, num), _pmul(rd, den)
            num, den = rn, rd
        return num, den

    def atom(self):
        kind, val = self.take()
        if kind == "n":
            return ({(0, 0, 0): Fraction(val)} if val else {}), ONE
        if kind == "v":
            m = [0, 0, 0]
            m[val] = 1
            return {tuple(m): Fraction(1)}, ONE
        if (kind, val) == ("o", "("):
            value = self.sum()
            self.take(")")
            return value
        raise ValueError(f"unexpected token {val!r}")


def parse_rational(text):
    """(numerator, denominator) of a rendered rational function."""
    return _Parser(text).parse()


def rational_equal(a, b):
    """Whether two renderings denote the same rational function."""
    if a == b:
        return True
    if a is None or b is None:
        return False
    na, da = parse_rational(a)
    nb, db = parse_rational(b)
    return _pmul(na, db) == _pmul(nb, da)


def _compare(expected, actual, path, diffs, key=None):
    if key in RATIONAL_KEYS and (isinstance(expected, str) or isinstance(actual, str)):
        try:
            same = rational_equal(expected, actual)
        except (ValueError, ZeroDivisionError) as exc:
            diffs.append(f"{path}: unparsable coefficient ({exc})")
            return
        if not same:
            diffs.append(f"{path}: coefficient differs")
        return
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            diffs.append(f"{path}: keys differ")
            return
        for k in sorted(expected):
            _compare(expected[k], actual[k], f"{path}.{k}", diffs, k)
            if len(diffs) > 5:
                return
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            diffs.append(f"{path}: length {len(actual)} != {len(expected)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _compare(e, a, f"{path}[{i}]", diffs, key)
        return
    if expected != actual or type(expected) is not type(actual):
        diffs.append(f"{path}: {actual!r} != {expected!r}")


def check_job(expected, exit_code, report_text):
    """(status, reason) of one job's result against its expected record.

    The byte-equal hash is the fast path only when the parsed report also
    equals the recorded one, so a corrupted expectation cannot pass on the
    strength of its hash.
    """
    if expected is None:
        return FAIL, "no expected result recorded"
    if exit_code != expected["exit"]:
        return FAIL, f"exit code {exit_code} != {expected['exit']}"
    try:
        report = json.loads(report_text)
    except ValueError as exc:
        return FAIL, f"report is not JSON: {exc}"
    same_bytes = sha256(report_text) == expected["sha256"]
    if same_bytes and report == expected["report"]:
        return PASS, ""
    diffs = []
    _compare(expected["report"], report, "report", diffs)
    if diffs:
        return FAIL, "; ".join(diffs)
    return (PASS if same_bytes else RENDERING_CHANGED), ""


def record(exit_code, report_text):
    """The expected-result record of a job run by the reference program."""
    return {
        "exit": exit_code,
        "sha256": sha256(report_text),
        "report": json.loads(report_text),
    }
