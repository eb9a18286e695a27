"""Closed formulas for the limit homotopy of shrinking wedges.

Run:  python3 demos/02_limit_formulas.py
"""

from cechwedge import (GradingSequence, cech_decompose, earring_formula,
                       load_table, render_text, stabilization_report,
                       weight_summand)

table = load_table("seed")

# The headline computation: the degree-n limit group of the shrinking
# wedge of countably many m-spheres, as a direct sum of countable
# products, one product per Hall-word weight.

print("shrinking wedge of 2-spheres:")
for n in range(2, 7):
    print("  degree %d: %s" % (n, render_text(earring_formula(n, 2, table))))

# Degree 2 is the Baer-Specker group Z^N; degree 3 adds a second product
# from the weight-2 words.  Where the sphere table runs out, the formula
# keeps a symbolic factor instead of guessing:

print("\ndegree 9 keeps unresolved groups symbolic:")
print("  %s" % render_text(earring_formula(9, 2, table)))

# The same degree decomposed by weight, one summand at a time:

print("\nweight breakdown in degree 4 over 2-spheres:")
for j in (1, 2, 3):
    print("  weight %d contributes %s"
          % (j, render_text(weight_summand(4, 2, j, table))))

# Nothing forces all spheres to share a dimension.  A grading assigns each
# letter its own connectivity; the census route computes the same kind of
# formula for the mixed wedge.

g = GradingSequence.parse("1,2;3")
print("\nmixed wedge (one S^2, one S^3, then S^4's), degree 3:")
print("  %s" % render_text(cech_decompose(3, g, table)))

# Two independent routes compute the constant-dimension case: the closed
# formula above, and the word-by-word census.  They agree on the nose.

for n in range(2, 9):
    assert earring_formula(n, 2, table) == \
        cech_decompose(n, GradingSequence.constant(1), table)
print("\nclosed formula == census route for n = 2..8 over 2-spheres")

# One degree above the sphere dimension the answer stops depending on m:

rep = stabilization_report(1, range(3, 7), table)
print("\ndegree m+1 across m = 3..6:")
for m, grp in rep.entries:
    print("  m=%d: %s" % (m, render_text(grp)))
print("verdict: %s" % ("stable at " + render_text(rep.stable_value)
                       if rep.stable else "not stable"))
