"""Probe sets that must never get a confident wrong verdict.

Every input either gets its true label from `classify` or raises
ValueError.  The inputs that get a wrong label today are strict xfails
that name the ROADMAP item expected to mend them, so a change that mends
one makes its xfail pass and fail the run until the mark is dropped.
"""
import numpy as np
import pytest

from bicyclic.classifier import classify
from bicyclic.curvegeom import fa_poly
from bicyclic.detrep import DetRep, polynomial_from_unitary, random_unitary
from bicyclic.poly2 import Poly2
from conftest import radial


def assert_true_label_or_raise(f, truth):
    try:
        label = classify([f]).threshold.label
    except ValueError:
        return
    assert label == truth


NEAR_THRESHOLD = {
    "f_0.5": fa_poly(0.5),
    "2-z1-z2": Poly2([[2, -1], [-1, 0]]),
    "det22": polynomial_from_unitary(
        DetRep(1.0, random_unitary(4, np.random.default_rng(5)), 2, 2)),
}
# the exponents k of the radii 1 -/+ 10^-k at which each curve gets a
# wrong label today
NEAR_THRESHOLD_WRONG = {
    ("f_0.5", -1): range(9, 14), ("f_0.5", 1): range(10, 14),
    ("2-z1-z2", -1): range(8, 14),
    ("det22", -1): range(9, 14), ("det22", 1): range(10, 14),
}
ITEM_13 = ("ROADMAP item 13: the reflection match or the |f| test at a slice "
           "root fires 1e-9 to 1e-13 from the threshold")


def _near_threshold_cases():
    for name in NEAR_THRESHOLD:
        for sign in (-1, 1):
            for k in range(6, 14):
                wrong = k in NEAR_THRESHOLD_WRONG.get((name, sign), ())
                marks = pytest.mark.xfail(strict=True, reason=ITEM_13) if wrong else ()
                yield pytest.param(name, sign, k, marks=marks,
                                   id=f"{name}-r=1{'-' if sign < 0 else '+'}1e-{k}")


@pytest.mark.parametrize("name,sign,k", _near_threshold_cases())
def test_near_threshold(name, sign, k):
    # f(r z) has its zeros off the closed bidisk for r < 1 and in the open
    # bidisk for r > 1
    f = radial(NEAR_THRESHOLD[name], 1 + sign * 10.0 ** -k)
    truth = "CyclicAllAlpha" if sign < 0 else "NotCyclicAnyAlpha"
    assert_true_label_or_raise(f, truth)


E07 = Poly2([[-np.exp(0.7j)], [1]])      # z1 - e^{0.7i}
E21 = Poly2([[-np.exp(2.1j), 1]])        # z2 - e^{2.1i}
TWO = Poly2([[2, -1], [-1, 0]])          # 2 - z1 - z2
ITEM_3 = ("ROADMAP item 3: a product with a univariate circle factor reads as "
          "a torus zero curve")
LEQ_ONE, LEQ_HALF = "CyclicIffAlphaLeqOne", "CyclicIffAlphaLeqHalf"
# each product's truth is the minimum over its factors' labels
REDUCIBLE = [
    pytest.param(E07 * E21, LEQ_ONE, id="(z1-e^0.7i)(z2-e^2.1i)",
                 marks=pytest.mark.xfail(strict=True, reason=ITEM_3)),
    pytest.param(Poly2([[2], [-1]]) * E21, LEQ_ONE, id="(2-z1)(z2-e^2.1i)",
                 marks=pytest.mark.xfail(strict=True, reason=ITEM_3)),
    pytest.param(Poly2([[1], [-1]]) * Poly2([[1, -1]]), LEQ_ONE, id="(1-z1)(1-z2)",
                 marks=pytest.mark.xfail(strict=True, reason=ITEM_3)),
    pytest.param(fa_poly(0.5) * TWO, LEQ_HALF, id="f_0.5(2-z1-z2)"),
    pytest.param(Poly2([[1, 0], [0, 1]]) * TWO, LEQ_HALF, id="(1+z1z2)(2-z1-z2)"),
    pytest.param(fa_poly(0.5) * Poly2([[0.5, -1], [-1, 0]]), "NotCyclicAnyAlpha",
                 id="f_0.5(0.5-z1-z2)"),
    pytest.param(E21 * TWO, LEQ_ONE, id="(z2-e^2.1i)(2-z1-z2)"),
    pytest.param(E07 * TWO, LEQ_ONE, id="(z1-e^0.7i)(2-z1-z2)"),
    pytest.param(TWO * TWO, LEQ_ONE, id="(2-z1-z2)^2"),
    pytest.param(fa_poly(0.5) * fa_poly(0.5), LEQ_HALF, id="f_0.5^2"),
    pytest.param(Poly2([[3, -1], [-1, 0]]) * TWO, LEQ_ONE, id="(3-z1-z2)(2-z1-z2)"),
]


@pytest.mark.parametrize("f,truth", REDUCIBLE)
def test_reducible_input(f, truth):
    # the product is given as one factor, against the irreducibility
    # precondition
    assert_true_label_or_raise(f, truth)
