"""Cross-check the closed-form dual against brute force, exhaustively.

For every valid generator tuple with alpha <= 4 and beta in {1, 3},
enumerate the code built from the predicted dual generators and compare
its canonical word matrix with the brute-force dual: every vector of
the ambient space orthogonal to the code.  Also confirms |C| * |C_dual| =
2^(alpha + 2*beta).
"""

import time

import numpy as np

from z2z4cyclic import codeword_matrix, dual_spec, iter_valid_specs
from z2z4cyclic.dual import brute_force_dual_matrix

t0 = time.perf_counter()
checked = mismatches = 0
for alpha in (1, 2, 3, 4):
    for beta in (1, 3):
        count = 0
        for spec in iter_valid_specs(alpha, beta):
            formula = codeword_matrix(dual_spec(spec))
            brute = brute_force_dual_matrix(spec)
            if not np.array_equal(formula, brute):
                mismatches += 1
                print(f"MISMATCH at b={spec.b} ell={spec.ell} f={spec.f} h={spec.h}")
            n, n_dual = len(codeword_matrix(spec)), len(brute)
            assert n * n_dual == 2 ** (alpha + 2 * beta)
            count += 1
        checked += count
        print(f"alpha={alpha} beta={beta}: {count:3d} generator tuples checked")

elapsed = time.perf_counter() - t0
print(f"\n{checked} codes, {mismatches} mismatches, {elapsed:.2f}s")
assert mismatches == 0
