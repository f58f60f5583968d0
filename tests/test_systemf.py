import itertools
import random

from bindcore import (
    bind_var,
    box,
    box_var,
    box_vars,
    eq_vars,
    name_of,
    new_var,
    subst,
    unbind,
    unbox,
)
from bindcore.oracle import convert, debruijn, named
from bindcore.cli import DEFAULT_STEPS
from bindcore.parser import parse_term, parse_type
from bindcore.systemf import (
    StepBudgetExceeded,
    Te,
    TeAbs,
    TeApp,
    TeLam,
    TeSpe,
    TeVar,
    TyAll,
    TyArr,
    TyVar,
    _TeAbs,
    _TeApp,
    _TeLam,
    _TeSpe,
    _TeVar,
    _TyAll,
    _TyArr,
    _TyVar,
    eq_te,
    eq_ty,
    lift_te,
    lift_ty,
    nf,
    print_te,
    print_ty,
    update_names,
)
from bindcore.typecheck import infer
from church import church, mult_term
from gen import TermGen, assert_no_visual_capture, churn, free_split


def worked_example():
    """The application combinator and its type, built with smart constructors."""
    X = new_var(TyVar, "X")
    Y = new_var(TyVar, "Y")
    f = new_var(TeVar, "f")
    a = new_var(TeVar, "a")
    x_arr_y = _TyArr(_TyVar(X), _TyVar(Y))
    appl_ty = _TyAll(bind_var(X, _TyAll(bind_var(Y, _TyArr(x_arr_y, x_arr_y)))))
    appl_te = _TeLam(
        bind_var(
            X,
            _TeLam(
                bind_var(
                    Y,
                    _TeAbs(
                        x_arr_y,
                        bind_var(
                            f,
                            _TeAbs(
                                _TyVar(X),
                                bind_var(a, _TeApp(_TeVar(f), _TeVar(a))),
                            ),
                        ),
                    ),
                )
            ),
        )
    )
    return appl_te, appl_ty


# --- smart constructors and lifting ---------------------------------------------


def test_smart_ctor_arrow():
    X, Y = new_var(TyVar, "X"), new_var(TyVar, "Y")
    t = unbox(_TyArr(_TyVar(X), _TyVar(Y)))
    assert isinstance(t, TyArr)
    assert isinstance(t.dom, TyVar) and eq_vars(t.dom.var, X)
    assert isinstance(t.cod, TyVar) and eq_vars(t.cod.var, Y)


def test_te_var_is_box_var():
    x = new_var(TeVar, "x")
    assert _TeVar(x) is box_var(x)


def test_lift_ty_base_case():
    x = new_var(TyVar, "X")
    assert lift_ty(TyVar(x)) is box_var(x)


def test_worked_example_unboxes():
    appl_te, appl_ty = worked_example()
    assert print_ty(unbox(appl_ty)) == "∀X.∀Y.((X ⇒ Y) ⇒ (X ⇒ Y))"
    assert print_te(unbox(appl_te)) == "ΛX.ΛY.λf:(X ⇒ Y).λa:X.(f a)"


def test_lift_round_trip_alpha_equal():
    appl_te, appl_ty = worked_example()
    te, ty = unbox(appl_te), unbox(appl_ty)
    assert eq_te(unbox(lift_te(te)), te)
    assert eq_ty(unbox(lift_ty(ty)), ty)


def test_lift_vars_are_free_vars():
    x = new_var(TeVar, "x")
    y = new_var(TeVar, "y")
    t = TeApp(TeVar(x), TeVar(y))
    assert {v.key for v in box_vars(lift_te(t))} == {x.key, y.key}


def test_lift_round_trip_random():
    rng = random.Random(5150)
    g = TermGen(rng, max_depth=6, max_size=40)
    for _ in range(60):
        t, _ = g.sample()
        assert eq_te(unbox(lift_te(t)), t)


# --- normalization ----------------------------------------------------------------


def _id_abs(a_var):
    x = new_var(TeVar, "x")
    return unbox(_TeAbs(_TyVar(a_var), bind_var(x, _TeVar(x))))


def test_nf_single_beta():
    A = new_var(TyVar, "A")
    y = new_var(TeVar, "y")
    r = nf(TeApp(_id_abs(A), TeVar(y)))
    assert isinstance(r, TeVar) and eq_vars(r.var, y)


def test_nf_reduces_under_binder():
    A = new_var(TyVar, "A")
    x = new_var(TeVar, "x")
    t = unbox(_TeAbs(_TyVar(A), bind_var(x, _TeApp(box(_id_abs(A)), _TeVar(x)))))
    assert eq_te(nf(t), _id_abs(A))


def test_nf_church_product():
    r = nf(mult_term(2, 3))
    assert eq_te(r, church(6))
    nm = convert.te_to_named(mult_term(2, 3))
    assert debruijn.alpha_eq(named.oracle_nf(nm), convert.te_to_named(r))


def test_nf_budget():
    A = new_var(TyVar, "A")
    x, y = new_var(TeVar, "x"), new_var(TeVar, "y")
    delta = _TeAbs(_TyVar(A), bind_var(x, _TeApp(_TeVar(x), _TeVar(x))))
    omega = _TeApp(delta, delta)
    # at the top, and under a binder, which only readback reaches
    for t in (unbox(omega), unbox(_TeAbs(_TyVar(A), bind_var(y, omega)))):
        try:
            nf(t, max_steps=64)
            assert False, "expected the budget to run out"
        except StepBudgetExceeded as e:
            assert e.steps == 64


def shared_argument_term(d: int, result: str, poly: bool = False) -> Te:
    """A chain of d functions, each applying the one before it twice.

    Lam X.fun g.fun x.((fun f0.(... ((fun fd.(fd x)) A_d) ...) A_1) id),
    with A_i = fun y.((fun z.RESULT) (f{i-1} (f{i-1} y))), which
    normalizes to fun y.RESULT.  The normal form is small, but an
    evaluator that redoes the body of each f at every use takes about
    3 * 2**d beta steps.  With `poly`, each f has type all Y.(Y => Y) and
    is instantiated before each use.
    """
    ty, a = ("all Y.(Y => Y)", "Y") if poly else ("(X => X)", "X")
    lam = f"Lam Y.fun y:{a}." if poly else f"fun y:{a}."

    def use(i: int, at: str) -> str:
        return f"(f{i} [{at}])" if poly else f"f{i}"

    body = f"({use(d, 'X')} x)"
    for i in range(d, 0, -1):
        f = use(i - 1, a)
        body = f"(fun f{i}:{ty}.{body} {lam}(fun z:{a}.{result} ({f} ({f} y))))"
    body = f"(fun f0:{ty}.{body} {lam}y)"
    return parse_term(f"Lam X.fun g:(X => X).fun x:X.{body}")


def test_nf_shares_work_on_repeated_arguments():
    d = 20
    for result, poly in (("y", False), ("(g y)", False), ("y", True)):
        t = shared_argument_term(d, result, poly)
        assert eq_ty(infer([], t), parse_type("all X.((X => X) => (X => X))"))
        want = parse_term(f"Lam X.fun g:(X => X).fun x:X.{result.replace('y', 'x')}")
        assert eq_te(nf(t, max_steps=DEFAULT_STEPS), want)
        assert eq_te(nf(t, max_steps=12 * d), want)  # 7d - 1 or 11d - 2 steps


def test_nf_result_shows_no_visual_capture():
    rng = random.Random(777)
    g = TermGen(rng, max_depth=6, max_size=40)
    for _ in range(60):
        t, _ = g.sample()
        assert_no_visual_capture(nf(t))  # the seal that ends `nf` names its binders


# --- printing ---------------------------------------------------------------------


def test_print_ty_forall_arrow():
    X = new_var(TyVar, "X")
    t = unbox(_TyAll(bind_var(X, _TyArr(_TyVar(X), _TyVar(X)))))
    assert print_ty(t) == "∀X.(X ⇒ X)"
    assert print_ty(t, ascii=True) == "all X.(X => X)"


def test_print_var_name():
    x = new_var(TyVar, "X")
    assert print_ty(TyVar(x)) == "X"


def test_print_spe_brackets():
    B = new_var(TyVar, "B")
    X = new_var(TyVar, "X")
    x = new_var(TeVar, "x")
    poly_id = unbox(_TeLam(bind_var(X, _TeAbs(_TyVar(X), bind_var(x, _TeVar(x))))))
    assert print_te(TeSpe(poly_id, TyVar(B))) == "(ΛX.λx:X.x [B])"


# --- alpha equality ---------------------------------------------------------------


def test_eq_ty_alpha():
    X, Y = new_var(TyVar, "X"), new_var(TyVar, "Y")
    all_x = unbox(_TyAll(bind_var(X, _TyVar(X))))
    all_y = unbox(_TyAll(bind_var(Y, _TyVar(Y))))
    assert eq_ty(all_x, all_y)
    all_xx = unbox(_TyAll(bind_var(X, _TyArr(_TyVar(X), _TyVar(X)))))
    assert not eq_ty(all_x, all_xx)


def test_eq_te_shadowing_sentinel():
    A = new_var(TyVar, "A")
    x1, x2, y = new_var(TeVar, "x"), new_var(TeVar, "x"), new_var(TeVar, "y")
    lam_xx = unbox(
        _TeAbs(_TyVar(A), bind_var(x1, _TeAbs(_TyVar(A), bind_var(x2, _TeVar(x2)))))
    )
    lam_xy = unbox(
        _TeAbs(_TyVar(A), bind_var(x1, _TeAbs(_TyVar(A), bind_var(y, _TeVar(y)))))
    )
    assert eq_te(lam_xx, lam_xy)
    # but the K combinator differs from the identity-dropping one
    lam_k = unbox(
        _TeAbs(_TyVar(A), bind_var(x1, _TeAbs(_TyVar(A), bind_var(y, _TeVar(x1)))))
    )
    assert not eq_te(lam_xx, lam_k)


def test_eq_te_distinct_free_vars():
    x, y = new_var(TeVar, "x"), new_var(TeVar, "y")
    assert eq_te(TeVar(x), TeVar(x))
    assert not eq_te(TeVar(x), TeVar(y))


def test_eq_coincides_with_canonical_form():
    rng = random.Random(31337)
    g = TermGen(rng, max_depth=6, max_size=40)
    for _ in range(40):
        t, _ = g.sample()
        u, _ = g.sample()
        same = eq_te(t, u)
        assert same == debruijn.alpha_eq(convert.te_to_named(t), convert.te_to_named(u))
        # update_names yields an alpha-equal term, and eq_te agrees
        t2 = update_names(t)
        assert eq_te(t, t2)
        assert debruijn.alpha_eq(convert.te_to_named(t), convert.te_to_named(t2))


# --- visual capture and renaming ---------------------------------------------------


def make_visual_capture():
    """Substitution plants a free "w" under a binder still named "w"."""
    A = new_var(TyVar, "A")
    v = new_var(TeVar, "v")
    w = new_var(TeVar, "w")
    # t0 = fun w:A.(v w), with v free
    t0 = unbox(_TeAbs(_TyVar(A), bind_var(w, _TeApp(_TeVar(v), _TeVar(w)))))
    b = unbox(bind_var(v, lift_te(t0)))
    intruder = new_var(TeVar, "w")
    return subst(b, TeVar(intruder)), intruder


def test_update_names_fixes_visual_capture():
    captured, intruder = make_visual_capture()
    shown = print_te(captured)
    assert shown == "λw:A.(w w)"  # two distinct variables, one name
    fixed = update_names(captured)
    assert eq_te(fixed, captured)
    shown_fixed = print_te(fixed)
    assert shown_fixed == "λw0:A.(w w0)"
    # the reparse is alpha-equal to the term we printed
    te_frees, ty_frees = free_split(fixed)
    back = parse_term(shown_fixed, free_te=te_frees, free_ty=ty_frees)
    assert eq_te(back, captured)


def test_update_names_noop_without_clashes():
    appl_te, _ = worked_example()
    te = unbox(appl_te)
    assert print_te(update_names(te)) == print_te(te)


def test_update_names_idempotent():
    captured, _ = make_visual_capture()
    once = update_names(captured)
    twice = update_names(once)
    assert print_te(once) == print_te(twice)


def _free_names(t) -> set[str]:
    # qualified names free in a named term or type, term and type sorts alike
    match t:
        case named.Var(n) | named.TVar(n):
            return {n}
        case named.App(u, v) | named.Spe(u, v) | named.TArr(u, v):
            return _free_names(u) | _free_names(v)
        case named.Abs(x, a, b):
            return _free_names(a) | (_free_names(b) - {x})
        case named.Lam(x, b) | named.TAll(x, b):
            return _free_names(b) - {x}
    raise TypeError(f"not a named term or type: {t!r}")


def _shown(qualified: str) -> str:
    return qualified.split("#", 1)[0]


def binder_names(t) -> list[str]:
    """The display names of a named term's binders, in preorder."""
    match t:
        case named.Var() | named.TVar():
            return []
        case named.App(u, v) | named.Spe(u, v) | named.TArr(u, v):
            return binder_names(u) + binder_names(v)
        case named.Abs(x, a, b):
            return [_shown(x)] + binder_names(a) + binder_names(b)
        case named.Lam(x, b) | named.TAll(x, b):
            return [_shown(x)] + binder_names(b)
    raise TypeError(f"not a named term or type: {t!r}")


def top_down_names(t) -> tuple[list[str], int]:
    """Reference renaming of a named term (from `convert.te_to_named`).

    Outermost binder first, each binder keeps its prefix and takes the
    smallest suffix (none < 0 < 1 < ...) that no variable free in its body
    shows, bound ones under the names already chosen for them.  Returns the
    chosen names in preorder, and how many binders are pushed on by an
    outer binder's new name: they would be named differently against the
    names the input shows.
    """
    names: list[str] = []
    pushed = 0

    def pick(prefix: str, taken: set[str]) -> str:
        if prefix and prefix not in taken:
            return prefix
        return next(
            f"{prefix}{i}" for i in itertools.count() if f"{prefix}{i}" not in taken
        )

    def bind(x: str, body, shown: dict[str, str]) -> dict[str, str]:
        nonlocal pushed
        free = _free_names(body) - {x}
        prefix = _shown(x).rstrip("0123456789")
        name = pick(prefix, {shown.get(n, _shown(n)) for n in free})
        pushed += name != pick(prefix, {_shown(n) for n in free})
        names.append(name)
        return {**shown, x: name}

    def go(t, shown: dict[str, str]) -> None:
        match t:
            case named.App(u, v) | named.Spe(u, v) | named.TArr(u, v):
                go(u, shown)
                go(v, shown)
            case named.Abs(x, a, b):
                inner = bind(x, b, shown)
                go(a, shown)
                go(b, inner)
            case named.Lam(x, b) | named.TAll(x, b):
                go(b, bind(x, b, shown))

    go(t, {})
    return names, pushed


def test_update_names_settles_chained_renaming():
    # a fresh "w" substituted for v: the outer binder must become w0, which
    # pushes the inner one on to w1; the same chain on type binders
    v, A, Y = new_var(TeVar, "v"), new_var(TyVar, "A"), new_var(TyVar, "Y")
    cases = [
        (parse_term("fun w:A.fun w0:A.(v (w w0))", [v], [A]), v,
         TeVar(new_var(TeVar, "w")),
         "λw:A.λw0:A.(w (w w0))", "λw0:A.λw1:A.(w (w0 w1))"),
        (parse_term("Lam X.Lam X0.fun x:(Y => (X => X0)).x", [], [Y]), Y,
         TyVar(new_var(TyVar, "X")),
         "ΛX.ΛX0.λx:(X ⇒ (X ⇒ X0)).x", "ΛX0.ΛX1.λx:(X ⇒ (X0 ⇒ X1)).x"),
    ]
    for t0, target, intruder, shown, want in cases:
        captured = subst(unbox(bind_var(target, lift_te(t0))), intruder)
        assert print_te(captured) == shown
        fixed = update_names(captured)
        assert print_te(fixed) == want
        assert eq_te(fixed, captured)
        # both binders are renamed, the inner one only because the outer did
        assert top_down_names(convert.te_to_named(captured)) == (
            binder_names(convert.te_to_named(fixed)), 1)


def test_update_names_matches_fixed_point():
    rng = random.Random(0x5E77)
    g = TermGen(rng, max_depth=6, max_size=40)
    terms = [churn(rng, g.sample()[0]) for _ in range(500)]
    terms += [nf(g.sample()[0]) for _ in range(500)]
    renamed = chained = 0
    for t in terms:
        shown = convert.te_to_named(t)
        want, pushed = top_down_names(shown)
        renamed += want != binder_names(shown)
        chained += pushed > 0
        assert binder_names(convert.te_to_named(update_names(t))) == want
    # many inputs need renaming, and some need chained renaming
    assert renamed > 100 and chained > 5


def test_update_names_opens_each_binder_once(monkeypatch):
    import bindcore.core as core
    import bindcore.systemf as systemf

    rng = random.Random(808)
    g = TermGen(rng, max_depth=6, max_size=40)
    terms = [churn(rng, g.sample()[0]) for _ in range(40)]
    terms.append(unbox(worked_example()[0]))
    # every binder prints as exactly one of λ, Λ and ∀
    binders = [sum(print_te(t).count(c) for c in "λΛ∀") for t in terms]
    assert any("∀" in print_te(t) for t in terms)
    calls = {"unbind": 0, "unbox": 0}
    # binders are opened by `core.box_binder`; the seal is `update_names`' own
    counted = {"unbind": core, "unbox": systemf}

    def counting(name):
        fn = getattr(counted[name], name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name, module in counted.items():
        monkeypatch.setattr(module, name, counting(name))
    for t, n in zip(terms, binders):
        calls.update(unbind=0, unbox=0)
        update_names(t)
        assert calls == {"unbind": n, "unbox": 1}


def test_bound_substitution_matches_oracle():
    # binding a free variable and substituting equals the reference
    # capture-avoiding substitution on converted terms
    rng = random.Random(60904)
    g = TermGen(rng, max_depth=5, max_size=35)
    done = 0
    while done < 60:
        t, ctx = g.sample()
        u, _ = g.sample()
        te_frees, _ = free_split(t)
        if not te_frees:
            continue
        x = rng.choice(te_frees)
        binder = unbox(bind_var(x, lift_te(t)))
        got = subst(binder, u)
        want = named.subst_te(
            convert.te_to_named(t),
            convert.qualified_name(x),
            convert.te_to_named(u),
        )
        assert debruijn.alpha_eq(convert.te_to_named(got), want)
        done += 1


def test_eq_te_equivalence_relation_sampled():
    rng = random.Random(3)
    g = TermGen(rng, max_depth=5, max_size=30)
    for _ in range(20):
        t, _ = g.sample()
        t1 = update_names(t)
        t2 = update_names(t1)
        assert eq_te(t, t)  # reflexive
        assert eq_te(t, t1) and eq_te(t1, t)  # symmetric on the sampled pair
        assert eq_te(t, t1) and eq_te(t1, t2) and eq_te(t, t2)  # transitive
