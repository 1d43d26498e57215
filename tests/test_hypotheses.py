"""Each inequality fails where its theorem's hypothesis fails.

A check that still passes outside the paper's hypotheses checks nothing.
The matrix Callebaut chain is proved for 0 <= t <= s <= 1/2 or
1/2 <= s <= t <= 1, with members symmetric under u -> 1 - u and increasing
in |u - 1/2|; with s and t swapped, so that |s - 1/2| > |t - 1/2|, its
middle link reverses.  The region check refuses a swapped point, so the
chain is built here from ``matrix_callebaut_members`` and ``_chain``.
"""

import numpy as np
import pytest

from meanscope import laws
from meanscope.laws import matrix_callebaut_members, sample_instance
from meanscope.linalg import HermitianMatrix, LoewnerVerdict


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
