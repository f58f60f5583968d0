"""Output checks that do not depend on the binding core.

`parse_te` reads a term printed on the canonical unicode grammar into a
`bindcore.oracle.named` term.  Names resolve lexically by construction of
named terms, and the parser is iterative, so a numeral with 2^16 nested
applications parses without deep recursion.
"""

from __future__ import annotations

import re

from bindcore.oracle import named as nm
from bindcore.oracle.debruijn import alpha_eq

from gen import redexes

_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(.))")


def _tokens(text: str) -> list[str]:
    out = []
    for m in _TOKEN.finditer(text.rstrip()):
        out.append(m.group(1) or m.group(2))
    return out


def _is_ident(tok: str) -> bool:
    c = tok[0]
    return c == "_" or (c.isascii() and c.isalpha())


class OutputError(Exception):
    pass


def parse_te(text: str) -> nm.Te:
    """Parse one term of the canonical grammar.

        A ::= x | "(" A " ⇒ " A ")" | "∀" x "." A
        t ::= x | "λ" x ":" A "." t | "(" t " " t ")" | "Λ" x "." t | "(" t " [" A "])"

    The pending constructions live on an explicit stack; `val` carries the
    term or type finished last.
    """
    toks = _tokens(text)
    pos = 0

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(toks):
            raise OutputError(f"unexpected end of output, expected {expected or 'more'}")
        tok = toks[pos]
        if expected is not None and tok != expected:
            raise OutputError(f"expected {expected!r} at token {pos}, found {tok!r}")
        pos += 1
        return tok

    def ident() -> str:
        tok = take()
        if not _is_ident(tok):
            raise OutputError(f"expected an identifier at token {pos - 1}, found {tok!r}")
        return tok

    stack: list[tuple] = []
    want_type = False
    while True:
        # descend: read prefixes until a leaf gives a finished value
        tok = take()
        if want_type:
            if tok == "∀":
                x = ident()
                take(".")
                stack.append(("all", x))
                continue
            if tok == "(":
                stack.append(("dom",))
                continue
            val = nm.TVar(tok)
        else:
            if tok == "λ":
                x = ident()
                take(":")
                stack.append(("annot", x))
                want_type = True
                continue
            if tok == "Λ":
                x = ident()
                take(".")
                stack.append(("lam", x))
                continue
            if tok == "(":
                stack.append(("fn",))
                continue
            val = nm.Var(tok)
        if not _is_ident(tok):
            raise OutputError(f"unexpected token {tok!r} at {pos - 1}")
        # ascend: finish every construction that was waiting for `val`
        while stack:
            frame = stack.pop()
            kind = frame[0]
            if kind == "all":
                val = nm.TAll(frame[1], val)
            elif kind == "dom":
                take("⇒")
                stack.append(("cod", val))
                break
            elif kind == "cod":
                take(")")
                val = nm.TArr(frame[1], val)
            elif kind == "annot":
                take(".")
                stack.append(("abs", frame[1], val))
                want_type = False
                break
            elif kind == "abs":
                val = nm.Abs(frame[1], frame[2], val)
            elif kind == "lam":
                val = nm.Lam(frame[1], val)
            elif kind == "fn":
                if pos < len(toks) and toks[pos] == "[":
                    take("[")
                    stack.append(("spe", val))
                    want_type = True
                else:
                    stack.append(("arg", val))
                break
            elif kind == "arg":
                take(")")
                val = nm.App(frame[1], val)
            elif kind == "spe":
                take("]")
                take(")")
                val = nm.Spe(frame[1], val)
                want_type = False
        else:
            if pos != len(toks):
                raise OutputError(f"trailing tokens after the term at token {pos}")
            return val


def output_lines(stdout: bytes, expected: int) -> list[str]:
    text = stdout.decode("utf-8")
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) - 1 != expected:
        raise OutputError(f"expected {expected} output lines, got {len(lines) - 1}")
    return lines[:-1]


def church_count(t: nm.Te) -> int:
    """n for a term ΛN.λs:(N ⇒ N).λz:N.(s (s … z)), read without recursion."""
    if not isinstance(t, nm.Lam):
        raise OutputError("numeral does not start with a type abstraction")
    n_ty = nm.TVar(t.var)
    s = t.body
    if not (isinstance(s, nm.Abs) and s.ty == nm.TArr(n_ty, n_ty)):
        raise OutputError("numeral lacks λs:(N ⇒ N)")
    z = s.body
    if not (isinstance(z, nm.Abs) and z.ty == n_ty and z.var != s.var):
        raise OutputError("numeral lacks λz:N")
    cur, n = z.body, 0
    while isinstance(cur, nm.App):
        if cur.fn != nm.Var(s.var):
            raise OutputError(f"application {n} is not headed by {s.var}")
        cur, n = cur.arg, n + 1
    if cur != nm.Var(z.var):
        raise OutputError(f"the innermost argument is not {z.var}")
    return n


def check_numeral(stdout: bytes, value: int) -> None:
    (line,) = output_lines(stdout, 1)
    got = church_count(parse_te(line))
    if got != value:
        raise OutputError(f"numeral has {got} applications, expected {value}")


def check_corpus(stdout: bytes, normals: list[nm.Te]) -> None:
    """Each line is closed, redex-free and α-equal to the oracle's normal form."""
    for i, (line, want) in enumerate(zip(output_lines(stdout, len(normals)), normals)):
        got = parse_te(line)
        if nm.free_te(got) or nm.free_ty_te(got):
            raise OutputError(f"eval t{i}: output has free variables: {line}")
        if redexes(got):
            raise OutputError(f"eval t{i}: output contains a redex: {line}")
        if not alpha_eq(got, want):
            raise OutputError(f"eval t{i}: output is not the normal form: {line}")
