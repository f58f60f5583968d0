"""Seeded generators that emit System F script text for the benchmark.

Scripts are written as text by this module alone: numerals and telescopes
are spelled out directly, and corpus terms are built as
`bindcore.oracle.named` terms (which never touch the binding core) and
printed by `show_te`/`show_ty` below.  Nothing here calls into the core,
the parser or the printer of `bindcore`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from bindcore.oracle import named as nm
from bindcore.oracle.debruijn import alpha_eq_ty

SETUP_SCRIPT = "print ΛX.λx:X.x;\n"
SETUP_OUTPUT = "ΛX.λx:X.x\n"

# --- printing named terms on the canonical unicode grammar --------------------


def show_ty(a: nm.Ty) -> str:
    match a:
        case nm.TVar(x):
            return x
        case nm.TArr(d, c):
            return f"({show_ty(d)} ⇒ {show_ty(c)})"
        case nm.TAll(x, b):
            return f"∀{x}.{show_ty(b)}"
    raise TypeError(f"not a type: {a!r}")


def show_te(t: nm.Te) -> str:
    match t:
        case nm.Var(x):
            return x
        case nm.Abs(x, a, b):
            return f"λ{x}:{show_ty(a)}.{show_te(b)}"
        case nm.App(f, u):
            return f"({show_te(f)} {show_te(u)})"
        case nm.Lam(x, b):
            return f"Λ{x}.{show_te(b)}"
        case nm.Spe(f, a):
            return f"({show_te(f)} [{show_ty(a)}])"
    raise TypeError(f"not a term: {t!r}")


def ty_size(a: nm.Ty) -> int:
    match a:
        case nm.TVar(_):
            return 1
        case nm.TArr(d, c):
            return 1 + ty_size(d) + ty_size(c)
        case nm.TAll(_, b):
            return 1 + ty_size(b)
    raise TypeError(f"not a type: {a!r}")


def te_size(t: nm.Te) -> int:
    """Syntax nodes of a term, annotation and specialization types included."""
    match t:
        case nm.Var(_):
            return 1
        case nm.Abs(_, a, b):
            return 1 + ty_size(a) + te_size(b)
        case nm.App(f, u):
            return 1 + te_size(f) + te_size(u)
        case nm.Lam(_, b):
            return 1 + te_size(b)
        case nm.Spe(f, a):
            return 1 + te_size(f) + ty_size(a)
    raise TypeError(f"not a term: {t!r}")


def redexes(t: nm.Te) -> int:
    """Number of beta and type redexes in a term."""
    match t:
        case nm.Var(_):
            return 0
        case nm.Abs(_, _, b) | nm.Lam(_, b):
            return redexes(b)
        case nm.App(f, u):
            return int(isinstance(f, nm.Abs)) + redexes(f) + redexes(u)
        case nm.Spe(f, _):
            return int(isinstance(f, nm.Lam)) + redexes(f)
    raise TypeError(f"not a term: {t!r}")


# --- numeral-exp -------------------------------------------------------------

NUMERAL_BASE = 2
NUMERAL_EXPONENT = 16


def numeral_text(n: int, tv: str, s: str, z: str) -> str:
    return f"Λ{tv}.λ{s}:({tv} ⇒ {tv}).λ{z}:{tv}." + f"({s} " * n + z + ")" * n


def numeral_exp(seed: int) -> str:
    """Numerals m=2 and n=16, the annotated exponent m**n, an assert and an eval.

    The seed only picks the one-letter binder names, so every seed does the
    same work.
    """
    rng = random.Random(seed)
    tv, s, z = rng.choice("NKMR"), rng.choice("sfgh"), rng.choice("zyxo")
    nat = f"∀{tv}.(({tv} ⇒ {tv}) ⇒ ({tv} ⇒ {tv}))"
    m, n = NUMERAL_BASE, NUMERAL_EXPONENT
    return (
        f"def m : {nat} = {numeral_text(m, tv, s, z)};\n"
        f"def n : {nat} = {numeral_text(n, tv, s, z)};\n"
        f"def e : {nat} = Λ{tv}.((n [({tv} ⇒ {tv})]) (m [{tv}]));\n"
        f"assert e : {nat};\n"
        "eval e;\n"
    )


# --- telescope-check ---------------------------------------------------------

TELESCOPES = 4
TELESCOPE_DEPTH = 1000
POLY_SHARE = 4  # one binder in four takes a polymorphic identity
SPEC_TYPE = "∀C.(C ⇒ C)"


@dataclass
class Telescope:
    """One deep λ-telescope; `kinds[j]` is 'f' for (A ⇒ A), 'g' for ∀P.(P ⇒ P)."""

    name: str
    tv: str
    kinds: list[str]

    def type_text(self, a: str) -> str:
        doms = [f"({a} ⇒ {a})" if k == "f" else "∀P.(P ⇒ P)" for k in self.kinds]
        return f"({a} ⇒ " + "".join(f"({d} ⇒ " for d in doms) + a + ")" * (len(doms) + 1)

    def term_text(self, bad_annot: int = -1, bad_spec: int = -1) -> str:
        """The telescope's term; `bad_annot`/`bad_spec` plant one type error."""
        tv = self.tv
        binders = []
        for j, k in enumerate(self.kinds, 1):
            if k == "f":
                dom = tv if j == bad_annot else f"({tv} ⇒ {tv})"
                binders.append(f"λf{j}:{dom}.")
            else:
                binders.append(f"λg{j}:∀P.(P ⇒ P).")
        heads = []
        for j in range(len(self.kinds), 0, -1):
            if self.kinds[j - 1] == "f":
                heads.append(f"(f{j} ")
            else:
                arg = f"({tv} ⇒ {tv})" if j == bad_spec else tv
                heads.append(f"((g{j} [{arg}]) ")
        return (
            f"Λ{tv}.λx0:{tv}." + "".join(binders) + "".join(heads) + "x0"
            + ")" * len(self.kinds)
        )

    def def_text(self, **bad: int) -> str:
        return f"def {self.name} : ∀{self.tv}.{self.type_text(self.tv)} = {self.term_text(**bad)};\n"

    def assert_text(self) -> str:
        return f"assert ({self.name} [{SPEC_TYPE}]) : {self.type_text(SPEC_TYPE)};\n"


def telescopes(seed: int) -> list[Telescope]:
    """Four telescopes of depth 1000; the seed shuffles binder kinds and names.

    Every telescope has the same number of each kind, so the work does not
    depend on the seed.
    """
    rng = random.Random(seed)
    out = []
    for i in range(TELESCOPES):
        d = TELESCOPE_DEPTH
        kinds = ["g"] * (d // POLY_SHARE) + ["f"] * (d - d // POLY_SHARE)
        rng.shuffle(kinds)
        out.append(Telescope(f"tel{i}", rng.choice("ABDE"), kinds))
    return out


def telescope_check(seed: int) -> str:
    return "".join(t.def_text() + t.assert_text() for t in telescopes(seed))


def telescope_perturbed(seed: int) -> list[str]:
    """Two one-statement scripts, each a telescope definition with a type error.

    The first has an annotation (A ⇒ A) replaced by A, the second a
    specialization [A] replaced by [(A ⇒ A)], at seeded positions; the CLI
    must reject both.
    """
    rng = random.Random(seed ^ 0x7E1E)
    first, second = telescopes(seed)[:2]
    j = rng.choice([j for j, k in enumerate(first.kinds, 1) if k == "f"])
    k = rng.choice([k for k, kind in enumerate(second.kinds, 1) if kind == "g"])
    return [first.def_text(bad_annot=j), second.def_text(bad_spec=k)]


# --- corpus-eval -------------------------------------------------------------

CORPUS_TERMS = 2000
CORPUS_MAX_SIZE = 50
CORPUS_MAX_DEPTH = 7
CORPUS_MAX_NF_SIZE = 120
TE_NAMES = "abfg"  # term binders may shadow each other
TY_NAMES = "XYZW"  # type binders are kept unique within a term


@dataclass
class _TermGen:
    """Well-typed named terms by construction, with planted redexes.

    Term binder names are drawn from a small pool, so shadowing and hence
    visual capture after substitution are common.  Type binder names are
    unique within a term, which keeps every type expressible wherever it
    is written.
    """

    rng: random.Random
    free_te: list[tuple[str, nm.Ty]] = field(default_factory=list)
    free_ty: list[str] = field(default_factory=list)
    n_bound_ty: int = 0
    budget: int = 0
    bottom: str = ""

    def fresh_ty_name(self) -> str:
        k = self.n_bound_ty
        self.n_bound_ty += 1
        return TY_NAMES[k % 4] + (str(k // 4) if k >= 4 else "")

    def free_ty_var(self) -> nm.Ty:
        if self.free_ty and self.rng.random() < 0.5:
            return nm.TVar(self.rng.choice(self.free_ty))
        name = f"T{len(self.free_ty)}"
        self.free_ty.append(name)
        return nm.TVar(name)

    def free_te_var(self, a: nm.Ty) -> nm.Te:
        name = f"v{len(self.free_te)}"
        self.free_te.append((name, a))
        return nm.Var(name)

    def ty(self, scope: tuple[str, ...], depth: int) -> nm.Ty:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.3:
            if scope and rng.random() < 0.6:
                return nm.TVar(rng.choice(scope))
            return self.free_ty_var()
        if rng.random() < 0.65:
            return nm.TArr(self.ty(scope, depth - 1), self.ty(scope, depth - 1))
        x = self.fresh_ty_name()
        return nm.TAll(x, self.ty((*scope, x), depth - 1))

    def of_type(self, ctx: list, scope: tuple[str, ...], a: nm.Ty, depth: int) -> nm.Te:
        self.budget -= 1
        rng = self.rng
        if depth <= 0 or self.budget <= 0:
            return self.leaf(ctx, scope, a)
        if rng.random() < 0.3:
            return self.redex(ctx, scope, a, depth)
        if isinstance(a, nm.TArr):
            x = rng.choice(TE_NAMES)
            return nm.Abs(x, a.dom, self.of_type([(x, a.dom), *ctx], scope, a.cod, depth - 1))
        if isinstance(a, nm.TAll):
            x = self.fresh_ty_name()
            body = nm.subst_ty(a.body, a.var, nm.TVar(x))
            return nm.Lam(x, self.of_type(ctx, (*scope, x), body, depth - 1))
        return self.leaf(ctx, scope, a)

    @staticmethod
    def visible(ctx: list) -> dict[str, nm.Ty]:
        out: dict[str, nm.Ty] = {}
        for x, b in ctx:  # innermost first: a shadowed binding is not visible
            out.setdefault(x, b)
        return out

    def leaf(self, ctx: list, scope: tuple[str, ...], a: nm.Ty) -> nm.Te:
        matches = [x for x, b in self.visible(ctx).items() if alpha_eq_ty(b, a)]
        if matches and self.rng.random() < 0.75:
            return nm.Var(self.rng.choice(matches))
        if nm.free_ty(a) & set(scope):
            # a free variable of this type would escape the binder of one
            # of its type variables: specialize a bottom-typed one instead
            if not self.bottom:
                z = self.fresh_ty_name()
                self.bottom = self.free_te_var(nm.TAll(z, nm.TVar(z))).name
            return nm.Spe(nm.Var(self.bottom), a)
        return self.free_te_var(a)

    def redex(self, ctx: list, scope: tuple[str, ...], a: nm.Ty, depth: int) -> nm.Te:
        rng = self.rng
        visible = list(self.visible(ctx).items())
        if isinstance(a, nm.TArr) and visible and rng.random() < 0.5:
            # ((λy:b.λx:c.(h y)) x) with h a variable: substitution puts the
            # outer x under the inner λx, a visual capture to be undone
            x, b = rng.choice(visible)
            y = rng.choice([n for n in TE_NAMES if n != x])
            h = self.leaf([(x, a.dom), (y, b), *ctx], scope, nm.TArr(b, a.cod))
            return nm.App(nm.Abs(y, b, nm.Abs(x, a.dom, nm.App(h, nm.Var(y)))), nm.Var(x))
        if rng.random() < 0.6:
            b = self.ty(scope, 1)
            y = rng.choice(TE_NAMES)
            body = self.of_type([(y, b), *ctx], scope, a, depth - 1)
            return nm.App(nm.Abs(y, b, body), self.of_type(ctx, scope, b, depth - 1))
        x = self.fresh_ty_name()
        body = self.of_type(ctx, (*scope, x), a, depth - 1)
        return nm.Spe(nm.Lam(x, body), self.ty(scope, 1))

    def sample(self) -> tuple[nm.Te, nm.Ty]:
        """One closed term and its type.

        The term is closed over its free term variables (λ) and then over
        every free type variable, including those that occur only in the
        type of a free term variable (Λ).
        """
        self.free_te, self.free_ty = [], []
        self.n_bound_ty, self.bottom = 0, ""
        self.budget = CORPUS_MAX_SIZE
        a = self.ty((), 3)
        t = self.of_type([], (), a, CORPUS_MAX_DEPTH)
        for x, b in reversed(self.free_te):
            t, a = nm.Abs(x, b, t), nm.TArr(b, a)
        for x in reversed(self.free_ty):
            t, a = nm.Lam(x, t), nm.TAll(x, a)
        return t, a


@dataclass
class CorpusTerm:
    term: nm.Te
    ty: nm.Ty
    normal: nm.Te


def corpus(seed: int) -> list[CorpusTerm]:
    """2000 closed terms of at most 50 nodes with at least one redex each.

    Terms whose reference normal form exceeds 120 nodes are redrawn, which
    keeps the per-term work, and so the whole run, close to the same for
    every seed.
    """
    gen = _TermGen(random.Random(seed))
    out: list[CorpusTerm] = []
    while len(out) < CORPUS_TERMS:
        t, a = gen.sample()
        if te_size(t) > CORPUS_MAX_SIZE or redexes(t) == 0:
            continue
        try:
            normal = nm.oracle_nf(t, max_steps=10_000)
        except nm.BudgetExceeded:
            continue
        if te_size(normal) > CORPUS_MAX_NF_SIZE:
            continue
        out.append(CorpusTerm(t, a, normal))
    return out


def corpus_text(terms: list[CorpusTerm]) -> str:
    return "".join(
        f"def t{i} : {show_ty(c.ty)} = {show_te(c.term)};\neval t{i};\n"
        for i, c in enumerate(terms)
    )

