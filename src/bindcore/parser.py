"""Parser for System F source on the canonical grammar.

Accepts both the unicode and the ASCII spellings on input:

    types       A ::= ident | "(" A " => " A ")" | "all " ident "." A
    terms       t ::= ident | "fun " ident ":" A "." t | "(" t " " t ")"
                    | "Lam " ident "." t | "(" t " [" A "])"
    statements      "def" ident [":" A] "=" t ";" | "assert" t ":" A ";"
                    | "eval" t ";" | "print" t ";"

Redundant parentheses around a term or type are tolerated.  Identifiers
bound by an enclosing binder resolve lexically; in scripts the remaining
identifiers must name an earlier definition, which is inlined at the use
site.  Anything else is an unbound-identifier error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from .core import BoxVal, Var, bind_var, box, box_var, name_of, new_var, unbox
from .systemf import (
    Te,
    TeVar,
    Ty,
    TyVar,
    _TeAbs,
    _TeApp,
    _TeLam,
    _TeSpe,
    _TyAll,
    _TyArr,
)

__all__ = [
    "ParseError",
    "Def",
    "AssertType",
    "Eval",
    "Print",
    "Stmt",
    "Script",
    "parse_script",
    "parse_term",
    "parse_type",
]


class ParseError(Exception):
    def __init__(self, code: str, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {code}: {message}")
        self.code = code
        self.message = message
        self.line = line
        self.col = col


@dataclass
class Def:
    name: str
    annot: Optional[Ty]
    te: Te
    line: int
    col: int


@dataclass
class AssertType:
    te: Te
    ty: Ty
    line: int
    col: int


@dataclass
class Eval:
    te: Te
    line: int
    col: int


@dataclass
class Print:
    te: Te
    line: int
    col: int


Stmt = Union[Def, AssertType, Eval, Print]
Script = list


# --- lexer -------------------------------------------------------------------

_KEYWORDS = {
    "def": "def",
    "assert": "assert",
    "eval": "eval",
    "print": "print",
    "fun": "lam",
    "Lam": "tlam",
    "all": "forall",
}

_SYMBOLS = {
    "λ": "lam",
    "Λ": "tlam",
    "∀": "forall",
    "⇒": "arrow",
    "=>": "arrow",
    "=": "equal",
    "(": "lparen",
    ")": "rparen",
    "[": "lbracket",
    "]": "rbracket",
    ":": "colon",
    ".": "dot",
    ";": "semi",
}

# One alternative per kind of lexeme, tried in order: group 1 a newline,
# then blanks (no group), group 2 a symbol (`=>` before `=`), group 3 an
# identifier or keyword, group 4 any other character, which is an error.
_TOKEN = re.compile(r"(\n)|[ \t\r]+|(=>|[=λΛ∀⇒()\[\]:.;])|([A-Za-z_][A-Za-z0-9_]*)|(.)")


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _lex(text: str) -> list[_Token]:
    # a column is an offset from the start of its line, counted from 1
    tokens: list[_Token] = []
    line, start = 1, 0
    for m in _TOKEN.finditer(text):
        newline, symbol, word, other = m.groups()
        col = m.start() - start + 1
        if newline:
            line, start = line + 1, m.end()
        elif symbol:
            tokens.append(_Token(_SYMBOLS[symbol], symbol, line, col))
        elif word:
            tokens.append(_Token(_KEYWORDS.get(word, "ident"), word, line, col))
        elif other:
            raise ParseError(
                "syntax-error", f"unexpected character {other!r}", line, col
            )
    tokens.append(_Token("eof", "", line, len(text) - start + 1))
    return tokens


# --- parser ------------------------------------------------------------------


def _as_name_map(
    free: Union[Mapping[str, Var], Iterable[Var], None]
) -> dict[str, Var]:
    if free is None:
        return {}
    if isinstance(free, Mapping):
        return dict(free)
    out: dict[str, Var] = {}
    for v in free:
        name = name_of(v)
        if name in out:
            raise ValueError(f"two free variables named {name!r}")
        out[name] = v
    return out


class _Parser:
    def __init__(
        self,
        tokens: list[_Token],
        free_te: Optional[dict[str, Var]] = None,
        free_ty: Optional[dict[str, Var]] = None,
    ) -> None:
        self.tokens = tokens
        self.pos = 0
        self.free_te = free_te or {}
        self.free_ty = free_ty or {}
        self.te_scope: dict[str, list[Var]] = {}
        self.ty_scope: dict[str, list[Var]] = {}
        self.defs: dict[str, Te] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {what}", tok)
        return self.next()

    def fail(self, message: str, tok: Optional[_Token] = None) -> None:
        tok = tok or self.peek()
        shown = tok.text if tok.kind != "eof" else "end of input"
        raise ParseError(
            "syntax-error", f"{message}, found {shown}", tok.line, tok.col
        )

    def unbound(self, tok: _Token) -> None:
        raise ParseError(
            "unbound-identifier", f"unbound identifier {tok.text!r}", tok.line, tok.col
        )

    # types

    def type_(self) -> BoxVal[Ty]:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            stack = self.ty_scope.get(tok.text)
            if stack:
                return box_var(stack[-1])
            if tok.text in self.free_ty:
                return box_var(self.free_ty[tok.text])
            self.unbound(tok)
        if tok.kind == "forall":
            self.next()
            name = self.expect("ident", "a type variable").text
            self.expect("dot", "'.'")
            x = new_var(TyVar, name)
            self.ty_scope.setdefault(name, []).append(x)
            try:
                body = self.type_()
            finally:
                self.ty_scope[name].pop()
            return _TyAll(bind_var(x, body))
        if tok.kind == "lparen":
            self.next()
            a = self.type_()
            tok = self.peek()
            if tok.kind == "arrow":
                self.next()
                b = self.type_()
                self.expect("rparen", "')'")
                return _TyArr(a, b)
            if tok.kind == "rparen":
                self.next()
                return a
            self.fail("expected '⇒' or ')'")
        self.fail("expected a type")

    # terms

    def term(self) -> BoxVal[Te]:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            stack = self.te_scope.get(tok.text)
            if stack:
                return box_var(stack[-1])
            if tok.text in self.free_te:
                return box_var(self.free_te[tok.text])
            if tok.text in self.defs:
                return box(self.defs[tok.text])  # definitions are closed
            self.unbound(tok)
        if tok.kind == "lam":
            self.next()
            name = self.expect("ident", "a variable").text
            self.expect("colon", "':'")
            a = self.type_()
            self.expect("dot", "'.'")
            x = new_var(TeVar, name)
            self.te_scope.setdefault(name, []).append(x)
            try:
                body = self.term()
            finally:
                self.te_scope[name].pop()
            return _TeAbs(a, bind_var(x, body))
        if tok.kind == "tlam":
            self.next()
            name = self.expect("ident", "a type variable").text
            self.expect("dot", "'.'")
            x = new_var(TyVar, name)
            self.ty_scope.setdefault(name, []).append(x)
            try:
                body = self.term()
            finally:
                self.ty_scope[name].pop()
            return _TeLam(bind_var(x, body))
        if tok.kind == "lparen":
            self.next()
            t = self.term()
            tok = self.peek()
            if tok.kind == "lbracket":
                self.next()
                a = self.type_()
                self.expect("rbracket", "']'")
                self.expect("rparen", "')'")
                return _TeSpe(t, a)
            if tok.kind == "rparen":
                self.next()
                return t
            u = self.term()
            self.expect("rparen", "')'")
            return _TeApp(t, u)
        self.fail("expected a term")

    # statements

    def script(self) -> Script:
        stmts: list[Stmt] = []
        while self.peek().kind != "eof":
            stmts.append(self.stmt())
        return stmts

    def stmt(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "def":
            self.next()
            name = self.expect("ident", "a definition name").text
            annot: Optional[Ty] = None
            if self.peek().kind == "colon":
                self.next()
                annot = unbox(self.type_())
            self.expect("equal", "'='")
            te = unbox(self.term())
            self.expect("semi", "';'")
            self.defs[name] = te
            return Def(name, annot, te, tok.line, tok.col)
        if tok.kind == "assert":
            self.next()
            te = unbox(self.term())
            self.expect("colon", "':'")
            ty = unbox(self.type_())
            self.expect("semi", "';'")
            return AssertType(te, ty, tok.line, tok.col)
        if tok.kind in ("eval", "print"):
            self.next()
            te = unbox(self.term())
            self.expect("semi", "';'")
            return (Eval if tok.kind == "eval" else Print)(te, tok.line, tok.col)
        self.fail("expected a statement (def, assert, eval, print)")


def parse_script(text: str) -> Script:
    """Parse a whole script; definitions are inlined into later statements."""
    p = _Parser(_lex(text))
    return p.script()


def parse_term(
    text: str,
    free_te: Union[Mapping[str, Var], Iterable[Var], None] = None,
    free_ty: Union[Mapping[str, Var], Iterable[Var], None] = None,
) -> Te:
    """Parse one term; `free_te`/`free_ty` resolve otherwise-unbound names."""
    p = _Parser(_lex(text), _as_name_map(free_te), _as_name_map(free_ty))
    b = p.term()
    p.expect("eof", "end of input")
    return unbox(b)


def parse_type(
    text: str,
    free_ty: Union[Mapping[str, Var], Iterable[Var], None] = None,
) -> Ty:
    """Parse one type; `free_ty` resolves otherwise-unbound names."""
    p = _Parser(_lex(text), None, _as_name_map(free_ty))
    b = p.type_()
    p.expect("eof", "end of input")
    return unbox(b)
