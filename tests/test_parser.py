import random

import pytest

from bindcore import eq_vars, name_of, new_var
from bindcore._stack import call_with_deep_stack
from bindcore.parser import (
    AssertType,
    Def,
    Eval,
    ParseError,
    Print,
    parse_script,
    parse_term,
    parse_type,
)
from bindcore.systemf import (
    TeAbs,
    TeApp,
    TeLam,
    TeVar,
    TyAll,
    TyArr,
    TyVar,
    eq_te,
    eq_ty,
    print_te,
    print_ty,
    update_names,
)
from gen import TermGen, assert_names_minimal, churn, free_split


def test_parse_type_variants():
    t = parse_type("∀X.(X ⇒ X)")
    assert isinstance(t, TyAll)
    assert eq_ty(t, parse_type("all X.(X => X)"))
    assert print_ty(t) == "∀X.(X ⇒ X)"


def test_parse_term_unicode_and_ascii_agree():
    a = parse_term("λx:(∀X.X).x")
    b = parse_term("fun x:(all X.X).x")
    assert eq_te(a, b)
    assert isinstance(a, TeAbs)


def test_parse_application_and_specialization():
    t = parse_term("ΛX.λf:(X ⇒ X).λa:X.(f a)")
    assert isinstance(t, TeLam)
    s = parse_term("(ΛX.λx:X.x [∀Y.Y])")
    assert print_te(s) == "(ΛX.λx:X.x [∀Y.Y])"


def test_redundant_parens_tolerated():
    assert eq_te(parse_term("((λx:(∀X.X).x))"), parse_term("λx:(∀X.X).x"))
    assert eq_ty(parse_type("((∀X.X))"), parse_type("∀X.X"))


def test_syntax_error_at_end_of_input():
    X = new_var(TyVar, "X")
    with pytest.raises(ParseError) as e:
        parse_term("λx:X.", free_ty=[X])
    assert e.value.code == "syntax-error"
    assert "end of input" in e.value.message
    assert e.value.line == 1


def test_syntax_error_position():
    with pytest.raises(ParseError) as e:
        parse_script("def broken = fun x:.x;")
    assert (e.value.line, e.value.col) == (1, 20)


@pytest.mark.parametrize(
    "src, expected",
    [
        # CRLF line ends; a tab and a blank each take one column
        (
            "def id = ΛX.λx:X.x;\r\n\tprint id;\r\n\t def k = ;\r\n",
            ("syntax-error", "expected a term, found ;", 3, 11),
        ),
        # λ, ⇒ and ∀ each take one column
        (
            "assert ΛY.λy:∀X.(X ⇒ Y).y : ∀Y.(∀X.(X ⇒ Y) ⇒ ∀X.(X ⇒ Y))]",
            ("syntax-error", "expected ';', found ]", 1, 57),
        ),
        # `==>` lexes as `=` then `=>`
        (
            "def k ==> ΛX.λx:X.x;",
            ("syntax-error", "expected a term, found =>", 1, 8),
        ),
        ("print é;", ("syntax-error", "unexpected character 'é'", 1, 7)),
        # end of input sits after the last newline
        (
            "def id = ΛX.λx:X.\n",
            ("syntax-error", "expected a term, found end of input", 2, 1),
        ),
        # a bad character is reported before an earlier syntax error
        (
            "def k = ;\nprint @;\n",
            ("syntax-error", "unexpected character '@'", 2, 7),
        ),
        # and before an earlier unbound identifier
        (
            "eval missing;\n  %\n",
            ("syntax-error", "unexpected character '%'", 2, 3),
        ),
        # every other message, once for each spelling of a token that has
        # two; a keyword where an identifier belongs shows as written
        ("print ΛX x;", ("syntax-error", "expected '.', found x", 1, 10)),
        ("print Lam X x;", ("syntax-error", "expected '.', found x", 1, 13)),
        ("assert ΛX.λx:X.x : ∀X X;", ("syntax-error", "expected '.', found X", 1, 23)),
        (
            "assert Lam X.fun x:X.x : all X X;",
            ("syntax-error", "expected '.', found X", 1, 32),
        ),
        ("print λx.x;", ("syntax-error", "expected ':', found .", 1, 9)),
        ("print fun x.x;", ("syntax-error", "expected ':', found .", 1, 12)),
        ("assert ΛX.λx:X.x;", ("syntax-error", "expected ':', found ;", 1, 17)),
        (
            "assert ΛX.λx:X.x : ∀X.(X ⇒ X ⇒ X);",
            ("syntax-error", "expected ')', found ⇒", 1, 30),
        ),
        (
            "assert Lam X.fun x:X.x : all X.(X => X => X);",
            ("syntax-error", "expected ')', found =>", 1, 40),
        ),
        (
            "print (ΛX.λx:X.x ΛX.λx:X.x;",
            ("syntax-error", "expected ')', found ;", 1, 27),
        ),
        ("print (ΛX.λx:X.x [∀X.X);", ("syntax-error", "expected ']', found )", 1, 23)),
        ("def id ΛX.λx:X.x;", ("syntax-error", "expected '=', found Λ", 1, 8)),
        ("def id Lam X.fun x:X.x;", ("syntax-error", "expected '=', found Lam", 1, 8)),
        (
            "assert ΛX.λx:X.x : ∀X.(X X);",
            ("syntax-error", "expected '⇒' or ')', found X", 1, 26),
        ),
        ("print λx:.x;", ("syntax-error", "expected a type, found .", 1, 10)),
        (
            "x;",
            (
                "syntax-error",
                "expected a statement (def, assert, eval, print), found x",
                1,
                1,
            ),
        ),
        (
            "λx:X.x;",
            (
                "syntax-error",
                "expected a statement (def, assert, eval, print), found λ",
                1,
                1,
            ),
        ),
        (
            "fun x:X.x;",
            (
                "syntax-error",
                "expected a statement (def, assert, eval, print), found fun",
                1,
                1,
            ),
        ),
        ("print λfun:A.x;", ("syntax-error", "expected a variable, found fun", 1, 8)),
        (
            "print fun Lam:A.x;",
            ("syntax-error", "expected a variable, found Lam", 1, 11),
        ),
        ("print Λ.x;", ("syntax-error", "expected a type variable, found .", 1, 8)),
        (
            "print Lam fun.x;",
            ("syntax-error", "expected a type variable, found fun", 1, 11),
        ),
        ("print λx:∀.x;", ("syntax-error", "expected a type variable, found .", 1, 11)),
        (
            "print λx:all Lam.x;",
            ("syntax-error", "expected a type variable, found Lam", 1, 14),
        ),
        ("def = x;", ("syntax-error", "expected a definition name, found =", 1, 5)),
        (
            "def print = x;",
            ("syntax-error", "expected a definition name, found print", 1, 5),
        ),
        # a (parser, text) pair parses with another entry point
        (
            (parse_term, "ΛX.λx:X.x ΛY.y"),
            ("syntax-error", "expected end of input, found Λ", 1, 11),
        ),
        (
            (parse_type, "all X.X =>"),
            ("syntax-error", "expected end of input, found =>", 1, 9),
        ),
    ],
)
def test_lexer_positions(src, expected):
    parse, text = src if isinstance(src, tuple) else (parse_script, src)
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.code, e.value.message, e.value.line, e.value.col) == expected


def test_unbound_identifier():
    with pytest.raises(ParseError) as e:
        parse_term("λx:(∀X.X).y")
    assert e.value.code == "unbound-identifier"
    with pytest.raises(ParseError):
        parse_type("∀X.Y")


def test_free_variables_resolved_by_name():
    y = new_var(TeVar, "y")
    X = new_var(TyVar, "X")
    t = parse_term("(y y)", free_te=[y], free_ty=[X])
    assert eq_te(t, TeApp(TeVar(y), TeVar(y)))
    a = parse_type("(X ⇒ X)", free_ty=[X])
    assert eq_ty(a, TyArr(TyVar(X), TyVar(X)))
    # a binder shadows the free y only in its body: the argument is free
    t = parse_term("(λy:X.y y)", free_te=[y], free_ty=[X])
    assert isinstance(t, TeApp) and isinstance(t.fn, TeAbs)
    assert isinstance(t.arg, TeVar) and eq_vars(t.arg.var, y)
    # a variable goes by the name it was given, leading zeros included
    x007, x7 = new_var(TeVar, "x007"), new_var(TeVar, "x7")
    t = parse_term("(x007 x7)", free_te=[x007, x7])
    assert eq_te(t, TeApp(TeVar(x007), TeVar(x7)))
    assert print_te(t) == "(x007 x7)"


def test_parse_script_def_and_statements():
    src = (
        "def id : ∀X.(X ⇒ X) = ΛX.λx:X.x;\n"
        "assert id : ∀X.(X ⇒ X);\n"
        "print id;\n"
        "eval (id [∀Y.Y]);\n"
    )
    script = parse_script(src)
    assert [type(s) for s in script] == [Def, AssertType, Print, Eval]
    d = script[0]
    assert d.name == "id"
    assert d.annot is not None and eq_ty(d.annot, parse_type("∀X.(X ⇒ X)"))
    assert (d.line, d.col) == (1, 1)
    # the definition was inlined into the eval statement
    ev = script[3]
    assert print_te(ev.te) == "(ΛX.λx:X.x [∀Y.Y])"


def test_defs_must_precede_use():
    with pytest.raises(ParseError) as e:
        parse_script("eval missing;")
    assert e.value.code == "unbound-identifier"


def test_lexical_scope_shadows_defs():
    script = parse_script(
        "def id = ΛX.λx:X.x;\n" "print (λid:(∀X.(X ⇒ X)).id id);\n"
    )
    # the bound id inside the binder, the definition again after it
    assert print_te(script[1].te) == "(λid:∀X.(X ⇒ X).id ΛX.λx:X.x)"


def test_keywords_are_reserved():
    with pytest.raises(ParseError):
        parse_script("def def = ΛX.λx:X.x;")


def test_print_parse_round_trip_canonical_strings():
    for s in [
        "∀X.(X ⇒ X)",
        "∀X.∀Y.((X ⇒ Y) ⇒ (X ⇒ Y))",
    ]:
        assert print_ty(parse_type(s)) == s
    for s in [
        "ΛX.λx:X.x",
        "ΛX.ΛY.λf:(X ⇒ Y).λa:X.(f a)",
        "(ΛX.λx:X.x [∀Y.Y])",
    ]:
        assert print_te(parse_term(s)) == s
    # parsing seals the term, naming its binders outermost first
    A = new_var(TyVar, "A")
    shown = print_te(parse_term("fun f1:A. fun f2:A. (f1 f2)", [], [A]))
    assert shown == "λf:A.λf0:A.(f f0)"


def test_round_trip_random_terms_both_alphabets():
    rng = random.Random(640)
    g = TermGen(rng, max_depth=5, max_size=35)
    for _ in range(40):
        t, _ = g.sample()
        t = churn(rng, t, rounds=2)
        fixed = update_names(t)
        te_frees, ty_frees = free_split(fixed)
        for ascii_mode in (False, True):
            shown = print_te(fixed, ascii=ascii_mode)
            back = parse_term(shown, free_te=te_frees, free_ty=ty_frees)
            assert eq_te(back, t)
            assert_names_minimal(back)


def test_telescope_binders_named_minimally():
    # a depth-300 telescope like the benchmark's: every fourth binder takes a
    # polymorphic identity, and the binders of each sort share one prefix
    d = 300
    kinds = ["g" if j % 4 == 0 else "f" for j in range(1, d + 1)]
    binders = "".join(
        f"λf{j}:(A ⇒ A)." if k == "f" else f"λg{j}:∀P.(P ⇒ P)."
        for j, k in enumerate(kinds, 1)
    )
    heads = "".join(
        f"(f{j} " if kinds[j - 1] == "f" else f"((g{j} [A]) " for j in range(d, 0, -1)
    )
    text = f"ΛA.λx0:A.{binders}{heads}x0" + ")" * d

    def parse_and_check():
        t = parse_term(text)
        assert_names_minimal(t)
        return print_te(t)

    shown = call_with_deep_stack(parse_and_check)
    assert shown.startswith(
        "ΛA.λx:A.λf:(A ⇒ A).λf0:(A ⇒ A).λf1:(A ⇒ A).λg:∀P.(P ⇒ P).λf2:(A ⇒ A)."
    )
    assert f"λg{d // 4 - 2}:∀P.(P ⇒ P).(" in shown
