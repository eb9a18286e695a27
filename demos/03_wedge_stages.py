"""The finite wedge stages and the bonding maps between them.

Run:  python3 demos/03_wedge_stages.py
"""

from cechwedge import (GradingSequence, apply_bonding, bonding,
                       decompose_wedge, load_table, parse_word, render_text)
from cechwedge.groups import integer_element

table = load_table("seed")
g1 = GradingSequence.constant(1)

# The limit formulas of demo 02 are inverse limits over finite wedges.
# Each finite stage splits into sphere groups indexed by Hall words:

print("pi_4 of a wedge of two 2-spheres:")
dec = decompose_wedge(4, 2, g1, table)
for w, grp in dec.summands:
    print("  %-16s -> %s" % (w, render_text(grp)))
print("  total: %s" % render_text(dec.total()))

# Adding a third sphere keeps every summand above and appends new ones;
# the words that survive dropping letter 3 are exactly the old ones.

dec3 = decompose_wedge(4, 3, g1, table)
print("\nsame degree over three spheres: %d summands (was %d)"
      % (len(dec3.summands), len(dec.summands)))

killed = [w for w in dec3.words() if w.max_letter > 2]
print("\ncollapsing the third sphere kills %d words, keeps %d:"
      % (len(killed), len(dec3.summands) - len(killed)))
for w in killed:
    print("  killed  %s" % (w,))

# Bonding maps act on coordinate vectors by dropping the killed words,
# those that mention the collapsed letter.  Push a level-3 coordinate
# assignment down to level 2:

coords = {parse_word("[a1,a2]"): integer_element(5),
          parse_word("[a1,a3]"): integer_element(1),
          parse_word("[a2,[a1,a3]]"): integer_element(-2)}
b = bonding(4, 2, g1)
pushed = apply_bonding(b, coords)
print("\npushing a level-3 coordinate set through the collapse:")
for w, f in sorted(coords.items()):
    kept = "kept" if w in pushed else "dropped"
    print("  %-16s %s" % (w, kept))

# Composing collapses is the same as collapsing in one go; that fact is
# what makes per-level coordinate streams well defined.

b43 = bonding(4, 3, g1)
two_step = apply_bonding(b, apply_bonding(b43, {
    w: integer_element(1) for w, _ in decompose_wedge(4, 4, g1, table).summands}))
print("\ntwo collapses 4 -> 3 -> 2 leave %d coordinates" % len(two_step))
