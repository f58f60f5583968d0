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

A token's kind is its canonical spelling: `fun` and `λ` are both of kind
`λ`, and `=>` and `⇒` of kind `⇒`.  A message names an expected symbol by
its kind and shows the token found as it was written.

Parsing takes one pass: the parser reads tokens as they are lexed and
builds each statement in a box as it goes.  A bad character anywhere in the
text is reported before any other parse error: on an error the parser
lexes the rest of the text first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Optional, Union

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

# A token is a (kind, text, line, col) tuple.  `_KINDS` maps a keyword to
# itself and an ASCII spelling to its unicode twin's; a symbol not in it is
# its own kind, any other word is an "ident" and the end of the text "eof".
_Token = tuple[str, str, int, int]

_KINDS = {
    "def": "def",
    "assert": "assert",
    "eval": "eval",
    "print": "print",
    "fun": "λ",
    "Lam": "Λ",
    "all": "∀",
    "=>": "⇒",
}

# One alternative per kind of lexeme, tried in order: group 1 a newline,
# then blanks (no group), group 2 a symbol (`=>` before `=`), group 3 an
# identifier or keyword, group 4 any other character, which is an error.
_TOKEN = re.compile(r"(\n)|[ \t\r]+|(=>|[=λΛ∀⇒()\[\]:.;])|([A-Za-z_][A-Za-z0-9_]*)|(.)")


def _lex(text: str) -> Iterator[_Token]:
    # a column is an offset from the start of its line, counted from 1
    line, start = 1, 0
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 2:
            symbol = m[2]
            yield _KINDS.get(symbol, symbol), symbol, line, m.start() - start + 1
        elif group == 3:
            word = m[3]
            yield _KINDS.get(word, "ident"), word, line, m.start() - start + 1
        elif group == 1:
            line, start = line + 1, m.end()
        elif group == 4:
            message = f"unexpected character {m[4]!r}"
            raise ParseError("syntax-error", message, line, m.start() - start + 1)
    yield "eof", "", line, len(text) - start + 1


# --- parser ------------------------------------------------------------------

# A scope maps each name of one sort to the box it denotes right now: a
# bound or free variable, or a definition.  None marks a name restored to
# not being in scope.
_Scope = dict[str, Optional[BoxVal]]


def _scope(free: Union[Mapping[str, Var], Iterable[Var], None]) -> _Scope:
    # the scope a parse starts from: each free variable under its name
    if free is None:
        return {}
    if isinstance(free, Mapping):
        return {name: box_var(v) for name, v in free.items()}
    out: _Scope = {}
    for v in free:
        name = name_of(v)
        if name in out:
            raise ValueError(f"two free variables named {name!r}")
        out[name] = box_var(v)
    return out


class _Parser:
    """Reads tokens as they are lexed, keeping only the current one.

    A binder (`binder`) saves its name's scope entry, parses its body and
    restores the entry.  An error ends the parse and the parser is thrown
    away, so the restore needs no `finally`.
    """

    def __init__(self, text: str, te_scope: _Scope, ty_scope: _Scope) -> None:
        self.tokens = _lex(text)
        self.tok = next(self.tokens)
        self.te_scope = te_scope
        self.ty_scope = ty_scope

    def next(self) -> _Token:
        tok = self.tok
        self.tok = next(self.tokens, tok)  # eof repeats
        return tok

    def expect(self, kind: str, what: Optional[str] = None) -> _Token:
        # a symbol is described by its kind, anything else by `what`
        if self.tok[0] != kind:
            self.fail(f"expected {what or repr(kind)}")
        return self.next()

    def error(self, code: str, message: str, tok: _Token) -> NoReturn:
        # a bad character anywhere in the text is reported first: draining
        # the lexer raises its error
        for _ in self.tokens:
            pass
        raise ParseError(code, message, tok[2], tok[3])

    def fail(self, message: str) -> NoReturn:
        kind, text = self.tok[:2]
        shown = text if kind != "eof" else "end of input"
        self.error("syntax-error", f"{message}, found {shown}", self.tok)

    def lookup(self, scope: _Scope, tok: _Token) -> BoxVal:
        b = scope.get(tok[1])
        if b is None:
            self.error("unbound-identifier", f"unbound identifier {tok[1]!r}", tok)
        return b

    def binder(
        self, scope: _Scope, mkfree: Callable, name: str, body: Callable
    ) -> BoxVal:
        # the dot and body of a binder: `name` stands for a fresh variable
        # while `body(self)` parses the body (no bound method per binder)
        self.expect(".")
        x = new_var(mkfree, name)
        old, scope[name] = scope.get(name), box_var(x)
        b = body(self)
        scope[name] = old
        return bind_var(x, b)

    # types

    def type_(self) -> BoxVal[Ty]:
        kind = self.tok[0]
        if kind == "ident":
            return self.lookup(self.ty_scope, self.next())
        if kind == "∀":
            self.next()
            name = self.expect("ident", "a type variable")[1]
            return _TyAll(self.binder(self.ty_scope, TyVar, name, _Parser.type_))
        if kind == "(":
            self.next()
            a = self.type_()
            if self.tok[0] == "⇒":
                self.next()
                b = self.type_()
                self.expect(")")
                return _TyArr(a, b)
            if self.tok[0] == ")":
                self.next()
                return a
            self.fail("expected '⇒' or ')'")
        self.fail("expected a type")

    # terms

    def term(self) -> BoxVal[Te]:
        kind = self.tok[0]
        if kind == "ident":
            return self.lookup(self.te_scope, self.next())
        if kind == "λ":
            self.next()
            name = self.expect("ident", "a variable")[1]
            self.expect(":")
            a = self.type_()
            return _TeAbs(a, self.binder(self.te_scope, TeVar, name, _Parser.term))
        if kind == "Λ":
            self.next()
            name = self.expect("ident", "a type variable")[1]
            return _TeLam(self.binder(self.ty_scope, TyVar, name, _Parser.term))
        if kind == "(":
            self.next()
            t = self.term()
            if self.tok[0] == "[":
                self.next()
                a = self.type_()
                self.expect("]")
                self.expect(")")
                return _TeSpe(t, a)
            if self.tok[0] == ")":
                self.next()
                return t
            u = self.term()
            self.expect(")")
            return _TeApp(t, u)
        self.fail("expected a term")

    # statements

    def script(self) -> Script:
        stmts: list[Stmt] = []
        while self.tok[0] != "eof":
            stmts.append(self.stmt())
        return stmts

    def stmt(self) -> Stmt:
        kind, _, line, col = self.tok
        if kind == "def":
            self.next()
            name = self.expect("ident", "a definition name")[1]
            annot: Optional[Ty] = None
            if self.tok[0] == ":":
                self.next()
                annot = unbox(self.type_())
            self.expect("=")
            te = unbox(self.term())
            self.expect(";")
            self.te_scope[name] = box(te)  # definitions are closed
            return Def(name, annot, te, line, col)
        if kind == "assert":
            self.next()
            te = unbox(self.term())
            self.expect(":")
            ty = unbox(self.type_())
            self.expect(";")
            return AssertType(te, ty, line, col)
        if kind in ("eval", "print"):
            self.next()
            te = unbox(self.term())
            self.expect(";")
            return (Eval if kind == "eval" else Print)(te, line, col)
        self.fail("expected a statement (def, assert, eval, print)")


def parse_script(text: str) -> Script:
    """Parse a whole script; definitions are inlined into later statements."""
    return _Parser(text, {}, {}).script()


def parse_term(
    text: str,
    free_te: Union[Mapping[str, Var], Iterable[Var], None] = None,
    free_ty: Union[Mapping[str, Var], Iterable[Var], None] = None,
) -> Te:
    """Parse one term; `free_te`/`free_ty` resolve otherwise-unbound names."""
    p = _Parser(text, _scope(free_te), _scope(free_ty))
    b = p.term()
    p.expect("eof", "end of input")
    return unbox(b)


def parse_type(
    text: str,
    free_ty: Union[Mapping[str, Var], Iterable[Var], None] = None,
) -> Ty:
    """Parse one type; `free_ty` resolves otherwise-unbound names."""
    p = _Parser(text, {}, _scope(free_ty))
    b = p.type_()
    p.expect("eof", "end of input")
    return unbox(b)
