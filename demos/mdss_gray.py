"""A dual pair meeting the Singleton-type bound with equality.

The code generated by b = x+1, ell = 1, f = h = 1 has Gray image equal
to the even-weight binary code of length alpha + 2*beta (distance 2);
its dual's Gray image is {zero, all-ones} (distance alpha + 2*beta).
Both sit exactly on the bound d - 1 <= alpha + 2*beta - gamma - 2*delta.
"""

import itertools

from z2z4cyclic import (
    Codeword,
    code_report,
    code_type,
    codeword_matrix,
    construct_mdss,
    dual_spec,
    format_codeword,
    gray_map,
)

alpha, beta = 2, 3
n = alpha + 2 * beta


def codewords(spec):
    """The rows of the canonical word matrix as Codewords, in row order."""
    return [
        Codeword(tuple(row[:alpha].tolist()), tuple(row[alpha:].tolist()))
        for row in codeword_matrix(spec)
    ]


spec = construct_mdss(alpha, beta)
t = code_type(spec)
print(f"code: b = {spec.b}, ell = {spec.ell}, f = h = 1, type {t}")

images = {gray_map(w) for w in codewords(spec)}
assert images == {
    v for v in itertools.product((0, 1), repeat=n) if sum(v) % 2 == 0
}
print(f"Gray image = all {len(images)} even-weight vectors of length {n}")
report = code_report(spec)
print(f"minimum distance {report.min_distance}, meets the bound: {report.is_mdss}")

dual = dual_spec(spec)
print(f"\ndual: b = {dual.b}, ell = {dual.ell}, f = {dual.f}, h = {dual.h}")
print(f"dual type {code_type(dual)}, codewords and Gray images:")
for w in codewords(dual):
    bits = " ".join(str(bit) for bit in gray_map(w))
    print(f"  {format_codeword(w)}  ->  {bits}")
report = code_report(dual)
print(f"minimum distance {report.min_distance}, meets the bound: {report.is_mdss}")
