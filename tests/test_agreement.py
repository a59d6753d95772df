"""One loop sign, several ways: every method on one random circle.

The paper's claim is that a real eigenvector's sign around a loop is
(-1)^(enclosed line charges).  For the model the closed form is -1 on a
circle that holds the origin alone (k > 0, r < 2k/g) and +1 otherwise: the
origin and the three outer cones together, or the one cone of winding 2 of
the pure quadratic model (k = 0).  Each method must give that sign or
refuse the circle with a BerrylineError; none may give the other sign.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from berryline import (
    BerrylineError,
    JTParams,
    SearchRect,
    ac_loop_phase,
    circle_path,
    detect_nodes,
    holonomy_sign,
    jt_field,
    jt_ring_problem,
    locate_ci,
    refine_nodes,
    track_branch,
)
from berryline.jahnteller import circle_nodes


@st.composite
def circles(draw, decades):
    """(k, g, r): k = 0 when a draw from 0 to 9 reads 0 and log-uniform
    otherwise, g log-uniform, and r = (2k/g) 10^U(-1, 1) kept more than
    1e-3 relative from 2k/g (r = 10^U(-1, 1) for k = 0)."""
    g = 10.0 ** draw(st.floats(-decades, decades))
    if not draw(st.integers(0, 9)):
        return 0.0, g, 10.0 ** draw(st.floats(-1.0, 1.0))
    k = 10.0 ** draw(st.floats(-decades, decades))
    scale = 10.0 ** draw(st.one_of(  # exponents outside the band, mostly
        st.floats(-1.0, math.log10(0.999)), st.floats(math.log10(1.001), 1.0)))
    assume(abs(scale - 1.0) > 1e-3)
    return k, g, scale * 2.0 * k / g


def closed_form_sign(k, g, r):
    return -1 if k > 0 and r < 2.0 * k / g else 1


def sign_or_refusal(method, *args):
    try:
        return method(*args)
    except BerrylineError as err:
        return type(err)


def tracking_signs(p, r):
    """The sign of each method that reads the circle as a loop, or the
    BerrylineError class it raised."""
    field = jt_field(p, frame="polar")

    def tracked():
        return holonomy_sign(track_branch(field, circle_path(r, 2048), 0))

    def refined():
        [nodes] = refine_nodes([circle_nodes(p, r)[0]])
        return (-1) ** nodes.count

    def detected():
        branch, trace = circle_nodes(p, r)
        return (-1) ** detect_nodes(trace, branch.path.coords[:, -1]).count

    def ring():
        return -1 if jt_ring_problem(p, r).flux_parity == "odd" else 1

    def loop_phase():  # 0 or pi, read as +1 or -1; any other phase fails
        phase = ac_loop_phase(p, circle_path(r, 2048))
        return 1 - 2 * round(abs(phase) / math.pi, 9)

    methods = {"holonomy_sign": tracked, "refine_nodes": refined,
               "detect_nodes": detected, "jt_ring_problem": ring,
               "ac_loop_phase": loop_phase}
    return {name: sign_or_refusal(method) for name, method in methods.items()}


def locator_sign(p, r):
    """The parity of the degeneracies locate_ci finds inside the circle, on
    a window of half-width about 1.25 r set a little off centre, so that
    its split lines do not run through the origin."""
    s = 1.25 * r
    rect = SearchRect(-1.013 * s, 0.991 * s, -0.997 * s, 1.021 * s)
    res = locate_ci(jt_field(p, frame="cartesian"), rect,
                    spatial_tol=1e-3 * r, samples_per_edge=8)
    return (-1) ** sum(math.hypot(x, y) < r for x, y in res.points)


def assert_no_wrong_sign(expected, signs):
    wrong = {name: sign for name, sign in signs.items()
             if sign != expected and not (isinstance(sign, type)
                                          and issubclass(sign, BerrylineError))}
    assert not wrong, f"closed form {expected}, got {wrong}"


@settings(deadline=None, max_examples=300)
@given(circles(decades=8.0))
def test_every_loop_method_gives_the_closed_form_sign(circle):
    k, g, r = circle
    assert_no_wrong_sign(closed_form_sign(k, g, r),
                         tracking_signs(JTParams(k, g), r))


# k, g in [1e-2, 1e2] only: over [1e-8, 1e8] the locator also gave no wrong
# sign, but a quarter to a third of the circles ran into slow
# CellLimitExceeded refusals, 40 to 60 s for 200 circles, too long for the
# tier-1 suite
@settings(deadline=None, max_examples=200)
@given(circles(decades=2.0))
def test_locator_agrees_with_every_loop_method(circle):
    k, g, r = circle
    p = JTParams(k, g)
    signs = tracking_signs(p, r)
    signs["locate_ci"] = sign_or_refusal(locator_sign, p, r)
    assert_no_wrong_sign(closed_form_sign(k, g, r), signs)
