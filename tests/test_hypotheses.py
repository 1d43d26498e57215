"""Each inequality fails where its theorem's hypothesis fails.

A check that still passes outside the paper's hypotheses checks nothing.
The matrix Callebaut chain is proved for 0 <= t <= s <= 1/2 or
1/2 <= s <= t <= 1, with members symmetric under u -> 1 - u and increasing
in |u - 1/2|; with s and t swapped, so that |s - 1/2| > |t - 1/2|, its
middle link reverses.  The region check refuses a swapped point, so the
chain is built here from ``matrix_callebaut_members`` and ``_chain``.

The other cases cross one hypothesis each: power-lemma's exponent above 1,
path-monotonicity's geodesic and region (a power path, which the check
skips, or s and t swapped, which it refuses; the link is built by
``_path_monotonicity_links``), and the
operator monotone representing function of a Kubo-Ando mean, patched to
x -> x**2, which is not operator monotone (Loewner-Heinz).  The identity
links (sharp-identity, interpolation-identity, path-axioms, and those of
mean-axioms, power-lemma and hadamard-callebaut) have no hypothesis to
cross: only a corrupted computation makes them fail.
"""

import itertools
from unittest import mock

import numpy as np
import pytest

from meanscope import laws, means
from meanscope.laws import matrix_callebaut_members, sample_instance
from meanscope.linalg import HermitianMatrix, LoewnerVerdict, power, stack


def chunk(law, n, m, seeds):
    return sample_instance(law, n=n, m=m, fieldname="complex", kappa_max=1e4,
                           seed=list(seeds))


# n = 1 with m = 1 is left out: one pair of commuting scalars makes every
# member 2ab, so the chain holds with equality
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_matrix_callebaut_middle_link_reverses_with_s_and_t_swapped(n, m):
    insts = sample_instance("matrix-callebaut", n=n, m=m, fieldname="complex",
                            kappa_max=1e4, seed=list(range(15)))
    s, t = laws._region_st(insts)
    members = matrix_callebaut_members(*laws._stacks(insts), t, s)
    entries = laws._chain(laws._CHAIN_LABELS, members, laws.DEFAULT_TOL)
    for k, links in enumerate(entries):
        assert [link.label for link in links] == list(laws._CHAIN_LABELS)
        assert [link.holds for link in links] == [True, False, True], k
        # the scale decides each verdict, as judge decides it from the norms
        # of the members decomposed apart
        for i, link in enumerate(links):
            lo, hi = (HermitianMatrix(x) for x in members.array[i:i + 2, k])
            scale = lo.norm_2() + hi.norm_2()
            want = LoewnerVerdict.judge(link.margin, scale, laws.DEFAULT_TOL)
            assert link.verdict == want
            assert link.verdict.scale.hex() == want.scale.hex()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_power_lemma_fails_above_exponent_one(n):
    # A^r + A^-r <= A + A^-1 holds for 0 <= r <= 1; at r = 1.5 it reverses
    # wherever A is not I, as cosh(1.5 x) > cosh(x) for x != 0
    a = stack([inst.As for inst in chunk("power-lemma", n, 1, range(10))])
    a = a[:, 0]
    members = stack([power(a, 1.5) + power(a, -1.5), a + power(a, -1.0)])
    entries = laws._chain(("r=1.5",), members, laws.DEFAULT_TOL)
    assert [link.holds for (link,) in entries] == [False] * 10


def path_monotonicity_links(n, m, r, swap):
    """The path-monotonicity link of a seeded chunk with every exponent set
    to r, and s and t swapped if ``swap``."""
    insts = chunk("path-monotonicity", n, m, range(10))
    for inst in insts:
        params = inst.params
        params["r"] = r
        if swap:
            params["s"], params["t"] = params["t"], params["s"]
    return [link for (link,) in
            laws._path_monotonicity_links(insts, laws.DEFAULT_TOL)]


# r < 0 is left out: the link held there in every trial measured, and
# whether it is a theorem is open
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_path_monotonicity_fails_on_a_power_path(n, m):
    links = path_monotonicity_links(n, m, 0.9, swap=False)
    assert [link.holds for link in links] == [False] * 10


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_path_monotonicity_fails_with_s_and_t_swapped(n, m):
    links = path_monotonicity_links(n, m, 0.0, swap=True)
    if m == 1:
        # F(u) = (A #_u B) # (A #_{1-u} B) is A # B at every u: an equality
        assert all(link.holds for link in links)
    else:
        assert [link.holds for link in links] == [False] * 10


def square(d):
    return lambda x: x ** 2


@pytest.mark.parametrize("law, label, ms", [
    ("mean-axioms", "joint-monotonicity", [1]),
    ("superadditivity", "superadditivity", [1, 2, 3, 4]),
    ("callebaut-operator", "upper-link", [1, 2, 3, 4]),
    ("wada", "upper-link", [1]),
])
def test_links_fail_without_an_operator_monotone_function(law, label, ms):
    # with f(x) = x**2 every mean is B A^-1 B, jointly convex (Lieb and
    # Ruskai 1974), so the concave side of each link reverses somewhere
    fails = {}
    for n, m in itertools.product([1, 2, 3], ms):
        insts = chunk(law, n, m, range(120 // (3 * len(ms))))
        with mock.patch.object(means, "representing_fn", square):
            results = laws.check_chunk(law, insts)
        links = [link for result in results for link in result.links
                 if link.label == label]
        assert len(links) == len(insts)
        fails[m] = fails.get(m, 0) + sum(not link.holds for link in links)
    assert sum(fails.values()) > 0
    if law in ("superadditivity", "callebaut-operator"):
        # at m = 1 both sides are the one pair's mean: an equality
        assert fails[1] == 0
