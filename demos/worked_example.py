"""Walk through one small code end to end.

Builds the (alpha=3, beta=3) code generated by b = x^3+1, ell = x+1,
f = 1, h = x^2+x+1, prints its type and codewords, then derives the
dual's generator tuple in closed form and checks orthogonality.
"""

from z2z4cyclic import (
    BinPoly,
    Codeword,
    QuatPoly,
    cardinality,
    code_type,
    codeword_matrix,
    dual_generators,
    dual_spec,
    format_codeword,
    spanning_set,
    validate_spec,
)

spec = validate_spec(
    3,
    3,
    BinPoly.parse("x^3+1"),
    BinPoly.parse("x+1"),
    QuatPoly.parse("1"),
    QuatPoly.parse("x^2+x+1"),
)
print(f"generators: b = {spec.b}, ell = {spec.ell}, f = {spec.f}, h = {spec.h}")
print(f"derived cofactor g = {spec.g} (f*h*g = x^{spec.beta}-1 over Z4)")
print(f"type {code_type(spec)}, {cardinality(spec)} codewords")

print("\nspanning set (cyclic shifts of these rows generate everything):")
for row in spanning_set(spec):
    print(" ", format_codeword(row))

print("\nall codewords:")
a = spec.alpha
words = codeword_matrix(spec)
for row in words:
    print(" ", format_codeword(Codeword(tuple(row[:a].tolist()), tuple(row[a:].tolist()))))

d = dual_generators(spec)
print(f"\ndual generators: b = {d.b_bar}, ell = {d.ell_bar}, f = {d.f_bar}, h = {d.h_bar}")
dual = dual_spec(spec)
print(f"dual type {code_type(dual)}, {cardinality(dual)} codewords")

# Inner product 2*<u, u'> + <q, q'> mod 4 of every codeword with every dual word.
dual_words = codeword_matrix(dual)
products = (2 * words[:, :a] @ dual_words[:, :a].T + words[:, a:] @ dual_words[:, a:].T) % 4
assert not products.any()
print(f"\nall {products.size} inner products across code x dual vanish")
