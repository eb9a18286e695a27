"""Elements of the limit groups: coherent families and their realizations.

Run:  python3 demos/04_element_algebra.py
"""

from types import SimpleNamespace

from cechwedge import (check_coherence, load_table, min_letter_element,
                       min_letter_subgroup_expr,
                       parse_element_file, parse_word, project_level,
                       render_element_file, render_text,
                       verify_composition_additivity,
                       verify_weight2_realization, weight_two_element)
from cechwedge.groups import integer_element

table = load_table("seed")

# An element of an inverse limit is one compatible coordinate per level.
# The cheapest description is an infinite matrix: entry (i, j) weights the
# bracket of letters i and j.  Levels are then finite snapshots.

e = weight_two_element(2, {(1, 2): 1, (2, 3): -2, (1, 5): 4})
print("a weight-2 family over 2-spheres, degree 3:")
for k in (2, 3, 5):
    row = ", ".join("%s: %s" % (w, ",".join(map(str, f.coords)))
                    for w, f in sorted(e.level(k).items()))
    print("  level %d: {%s}" % (k, row))

# Compatibility is checkable: push level k+1 down and compare.  Corrupt
# one coordinate of a stored list of levels and the replay points at it.

rep = check_coherence(e, 6)
print("\ncoherence through level 6: %s" % ("ok" if rep.ok else "BROKEN"))
levels = list(e.walk(6))
levels[3][parse_word("[a1,a2]")] = integer_element(9)   # level 4
stream = SimpleNamespace(n=e.n, m=e.m, walk=lambda kmax: iter(levels[:kmax]))
rep = check_coherence(stream, 6)
print("after corrupting level 4: %s at %s"
      % ("ok" if rep.ok else "broken",
         ", ".join("level %d %s" % (k, w) for k, w in rep.failures)))

# The matrix is not just bookkeeping: a single mapping-telescope sum
# realizes it, and projecting that sum to level k reproduces the level-k
# coordinates.  The verifier compares the projection (the collapse map:
# the terms eps_{i,j} [a_i, a_j] with j <= k, already Hall words, with
# coefficients in Z) with the element's own level coordinates.

print("\nweight-2 realization check: %s"
      % ("PASS" if verify_weight2_realization(
          weight_two_element(2, {(1, 2): 1, (2, 3): -2}), 6).ok else "FAIL"))

# Deeper words use per-least-letter families of compositions.  Their
# realization is additive, and the projection of the realization matches
# the element's own coordinates level by level.

a = min_letter_element(4, 2, {1: [("[a1,[a1,a2]]", 3)]}, table)
b = min_letter_element(4, 2, {2: [("[a2,[a2,a3]]", -1)]}, table)
print("composition additivity check: %s"
      % ("PASS" if verify_composition_additivity(a, b, 5).ok else "FAIL"))
assert project_level(a + b, 4) == (a + b).level(4)

# The subgroup those families span has two equivalent shapes, grouping by
# letter or by weight:

forms = min_letter_subgroup_expr(4, 2, table)
print("\ndeep subgroup in degree 4, by letter:  %s"
      % render_text(forms.per_letter))
print("deep subgroup in degree 4, by weight:  %s"
      % render_text(forms.weight_split))
print("structurally equal: %s" % forms.equal)

# Elements also have a file form, round-trippable and diffable:

text = render_element_file(e)
print("\nelement file for the weight-2 family above:")
for line in text.splitlines():
    print("  " + line)
assert render_element_file(parse_element_file(text, table)) == text

# Larger seeded sweeps of these checks run from the command line, e.g.
#   cechwedge verify edge --random --seed 7 --m 2
#   cechwedge verify theta --random --seed 7 --n 4 --m 2
