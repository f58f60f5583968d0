from bindcore import box, box_var, box_vars, is_closed, new_var, unbox
from bindcore.combinators import box_apply, box_apply2
from gen import leaf_free

mk = leaf_free


def test_box_apply_identity():
    x = new_var(mk, "x")
    b = box_var(x)
    assert unbox(box_apply(lambda v: v, b)) == unbox(b)
    assert unbox(box_apply(lambda v: v, box(3))) == 3


def test_box_apply_composition():
    f = lambda v: ("f", v)
    g = lambda v: ("g", v)
    x = new_var(mk, "x")
    for b in [box(1), box_var(x)]:
        lhs = box_apply(lambda v: g(f(v)), b)
        rhs = box_apply(g, box_apply(f, b))
        assert unbox(lhs) == unbox(rhs)


def test_box_apply2_closed():
    assert unbox(box_apply2(lambda a, b: (a, b), box(1), box(2))) == (1, 2)
    assert is_closed(box_apply2(lambda a, b: (a, b), box(1), box(2)))


def test_box_apply2_vars_union():
    x, y = new_var(mk, "x"), new_var(mk, "y")
    b = box_apply2(lambda a, c: (a, c), box_var(x), box_var(y))
    assert {v.key for v in box_vars(b)} == {x.key, y.key}
    assert unbox(b) == (("var", x), ("var", y))
    # mixed closed/open operands keep the open side's variables
    left = box_apply2(lambda a, c: (a, c), box(0), box_var(y))
    assert box_vars(left) == (y,)
    right = box_apply2(lambda a, c: (a, c), box_var(x), box(0))
    assert box_vars(right) == (x,)
