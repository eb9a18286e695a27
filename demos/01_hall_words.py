"""Hall words: generation, counting, nesting, and graded heights.

Run:  python3 demos/01_hall_words.py
"""

from cechwedge import (GradingSequence, dimension_truncation, generate,
                       height, height_class_census, necklace_count)

# Every free-Lie-algebra basis computation in this package starts from the
# same canonical Hall set.  Ask for all words on 2 letters up to weight 4.
# A listing keeps each bracket as the positions of its two factors;
# words() builds the bracket trees from them.

words = generate(2, 4).words()
print("Hall words on {a1, a2} through weight 4:")
for w in words:
    print("  %-18s weight %d" % (w, w.length))

# Stratum sizes follow the necklace polynomial.  No table needed; this is
# pure combinatorics:

print("\nstratum sizes vs necklace counts, k = 3:")
for j in range(1, 6):
    got = sum(1 for w in generate(3, j).words() if w.length == j)
    print("  weight %d: %d words, necklace_count = %d"
          % (j, got, necklace_count(3, j)))

# The point of this particular ordering: the Hall set on k letters sits at
# the FRONT of each stratum of the Hall set on k+1 letters, and the new
# words are exactly the ones using the new letter.  That coherence is what
# lets towers of finite wedges share one indexing scheme.

small = [w for w in generate(2, 3).words() if w.length == 3]
large = [w for w in generate(3, 3).words() if w.length == 3]
print("\nweight-3 stratum on 2 letters is a prefix of the one on 3 letters:")
print("  k=2:", ", ".join(str(w) for w in small))
print("  k=3:", ", ".join(str(w) for w in large))
assert large[:len(small)] == small
assert all(w.max_letter == 3 for w in large[len(small):])

# Mixed sphere dimensions enter through a grading: each letter carries a
# connectivity, and a word's height is the letterwise sum.  The grading
# "1,2;3" says letter 1 has grade 1, letter 2 has grade 2, and everything
# after grade 3.

g = GradingSequence.parse("1,2;3")
print("\nheights under grading 1,2;3:")
for w in generate(2, 3).words():
    print("  %-18s height %d  (sphere S^%d)" % (w, height(w, g),
                                                height(w, g) + 1))

# Degree-n homotopy only sees words of height <= n - 1; the truncation
# lists exactly those.

print("\nwords visible to degree 5 on 3 letters, grading 1,2;3:")
g3 = GradingSequence.parse("1,2;3")
visible, _ = dimension_truncation(3, 5, g3)  # the words and their heights
for w in visible.words():
    print("  %s" % (w,))

# With infinitely many letters the truncation can be infinite; the census
# reports per-height counts with an explicit infinity marker.

print("\nheight census for degree 4, constant grading 1:")
for h, c in sorted(height_class_census(4, GradingSequence.constant(1)).items()):
    print("  height %d: %s" % (h, c))
