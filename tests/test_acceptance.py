"""Acceptance gate: nine exact-match criteria, one verdict line each.

Each criterion prints "[criterion N] PASS/FAIL: <what it covers>" straight
to the terminal (bypassing capture) so a test run shows the gate at a
glance.  Everything here is exact equality; there are no tolerances.
"""

import itertools
import random
from contextlib import contextmanager
from types import SimpleNamespace

from cechwedge.cli import main
from cechwedge.elements import (check_coherence, parse_word, project_level,
                                random_min_letter_elements,
                                random_sparse_epsilon,
                                verify_composition_additivity,
                                verify_weight2_realization,
                                weight_one_part_vanishes, weight_two_element)
from cechwedge.groups import integer_element, render_text
from cechwedge.hall import (COUNTABLY_INFINITE, GradingSequence, bracket,
                            generate, height_class_census, is_hall, letter,
                            necklace_count)
from cechwedge.hilton import (cech_decompose, earring_formula,
                              stabilization_report)
from cechwedge.spheres import seed_table
from cechwedge.whitehead import (FormalSum, hall_normalize, monomial_of_word,
                                 parse_bracket_expr, tensor_expansion)

from random_elements import random_element

TABLE = seed_table()


def _line(config, text):
    rep = config.pluginmanager.getplugin("terminalreporter")
    if rep is not None:
        rep.write_line(text)
    else:
        print(text)


@contextmanager
def _criterion(request, num, desc):
    try:
        yield
    except BaseException:
        _line(request.config, "[criterion %d] FAIL: %s" % (num, desc))
        raise
    _line(request.config, "[criterion %d] PASS: %s" % (num, desc))


# ---------------------------------------------------------------------------
# 1. Golden limit formulas through the command line.


def test_criterion_1_golden_formulas(request, capsys):
    with _criterion(request, 1, "limit formula golden strings"):
        cases = [(2, 3, "Z^N (+) Z^N"),
                 (2, 4, "(Z/2)^N (+) (Z/2)^N (+) Z^N"),
                 (2, 2, "Z^N")]
        cases += [(n, n + 1, "(Z/2)^N") for n in range(3, 7)]
        for m, n, want in cases:
            rc = main(["cech", "earring", "-m", str(m), "-n", str(n)])
            out, _ = capsys.readouterr()
            assert rc == 0, (m, n)
            assert out == want + "\n", (m, n, out)


# ---------------------------------------------------------------------------
# 2. Hall census against the necklace count and a brute-force enumeration.


def _trees(k, j):
    if j == 1:
        return list(range(1, k + 1))
    out = []
    for a in range(1, j):
        for lt in _trees(k, a):
            for rt in _trees(k, j - a):
                out.append((lt, rt))
    return out


def _t_weight(t):
    return 1 if isinstance(t, int) else _t_weight(t[0]) + _t_weight(t[1])


def _t_max(t):
    return t if isinstance(t, int) else max(_t_max(t[0]), _t_max(t[1]))


def _t_key(t):
    if isinstance(t, int):
        return (1, t)
    return (_t_weight(t), _t_max(t), _t_key(t[0]), _t_key(t[1]))


def _t_is_hall(t):
    if isinstance(t, int):
        return True
    x, y = t
    if not (_t_is_hall(x) and _t_is_hall(y)):
        return False
    if not _t_key(x) < _t_key(y):
        return False
    if isinstance(y, tuple) and _t_key(y[0]) > _t_key(x):
        return False
    return True


def _as_tuple(w):
    if w.is_letter:
        return w.max_letter
    return (_as_tuple(w.left), _as_tuple(w.right))


def test_criterion_2_hall_census(request):
    with _criterion(request, 2, "stratum sizes match the necklace count "
                                "and brute-force enumeration"):
        for k in range(1, 6):
            words = generate(k, 7).words()
            for j in range(1, 8):
                got = sum(1 for w in words if w.length == j)
                assert got == necklace_count(k, j), (k, j, got)
        for k in range(1, 4):
            words = generate(k, 5).words()
            for j in range(1, 6):
                brute = sorted((t for t in _trees(k, j) if _t_is_hall(t)),
                               key=_t_key)
                mine = [_as_tuple(w) for w in words if w.length == j]
                assert mine == brute, (k, j)


# ---------------------------------------------------------------------------
# 3. Coherent nesting across alphabet sizes.


def test_criterion_3_coherent_nesting(request):
    with _criterion(request, 3, "ordered-prefix and new-letter laws of "
                                "the nested Hall sets"):
        for k in range(1, 6):
            cur = generate(k, 6).words()
            nxt = generate(k + 1, 6).words()
            for j in range(1, 7):
                a = [w for w in cur if w.length == j]
                b = [w for w in nxt if w.length == j]
                assert b[:len(a)] == a, (k, j)
                assert all(w.max_letter == k + 1 for w in b[len(a):]), (k, j)
                assert a == [w for w in b if w.max_letter <= k], (k, j)


# ---------------------------------------------------------------------------
# 4. The closed formula equals the census route.


def test_criterion_4_two_path_equality(request):
    with _criterion(request, 4, "closed formula agrees with the census "
                                "route for n <= 8, m <= 5"):
        for m in range(2, 6):
            grading = GradingSequence.constant(m - 1)
            for n in range(2, 9):
                direct = earring_formula(n, m, TABLE)
                census = cech_decompose(n, grading, TABLE)
                assert direct == census, (n, m)


def test_census_is_the_weight_blocks_of_a_constant_grading():
    # a route beside criterion 4 that runs no group normalization: for
    # the grading m - 1, class h is a countable product exactly when
    # m - 1 divides h, the weight-h/(m - 1) block, and empty otherwise
    grid = [(n, m) for n in range(2, 15) for m in range(2, 7)]
    for n, m in grid + [(200, m) for m in range(2, 7)]:
        census = height_class_census(n, GradingSequence.constant(m - 1))
        assert census == {h: COUNTABLY_INFINITE if h % (m - 1) == 0 else 0
                          for h in range(m - 1, n)}, (n, m)


# ---------------------------------------------------------------------------
# 5. Tower coherence of random elements, plus a corrupted control.


def test_criterion_5_tower_coherence(request):
    with _criterion(request, 5, "200 random elements are coherent; a "
                                "corrupted stream is caught"):
        rng = random.Random(5)
        pairs = [(n, m) for m in (2, 3) for n in range(2, 7)]
        kinds = set()
        for t in range(200):
            n, m = pairs[t % len(pairs)]
            e = random_element(rng, n, m, TABLE)
            if e.eps:
                kinds.add("eps")
            elif any(w.is_letter for w, _ in e.coords):
                kinds.add("weight-1")
            elif e.coords:
                kinds.add("deeper only")
            rep = check_coherence(e, 6)
            assert rep.ok, (n, m, rep.failures)
        assert kinds == {"eps", "weight-1", "deeper only"}
        control = weight_two_element(2, {(1, 2): 1, (2, 3): 2})
        levels = list(control.walk(6))
        levels[3][parse_word("[a1,a2]")] = integer_element(7)  # level 4
        stream = SimpleNamespace(n=control.n, m=control.m,
                                 walk=lambda kmax: iter(levels[:kmax]))
        rep = check_coherence(stream, 6)
        assert not rep.ok and rep.failures


# ---------------------------------------------------------------------------
# 6. The weight-2 realization identity and matrix additivity.


def test_criterion_6_edge_realization(request):
    with _criterion(request, 6, "100 random matrices realize their "
                                "weight-2 families; additivity holds"):
        rng = random.Random(6)
        runs = 0
        for m in (2, 3):
            for _ in range(50):
                alpha = random_sparse_epsilon(rng)
                beta = random_sparse_epsilon(rng)
                fa = weight_two_element(m, alpha)
                assert verify_weight2_realization(fa, 6).ok, (m, alpha)
                fb = weight_two_element(m, beta)
                fab = weight_two_element(m, alpha + beta)
                for k in range(1, 7):
                    want = dict(project_level(fa, k))
                    for w, f in project_level(fb, k).items():
                        want[w] = (want[w] + f) if w in want else f
                    want = {w: f for w, f in want.items() if f}
                    assert project_level(fab, k) == want, (m, k)
                runs += 1
        assert runs == 100


# ---------------------------------------------------------------------------
# 7. The composition monomorphism: additivity, projection, separation.


def test_criterion_7_composition_monomorphism(request):
    with _criterion(request, 7, "100 random least-letter families: "
                                "additivity, projection agreement, "
                                "separation, trivial product part"):
        rng = random.Random(7)
        total = 0
        for n, m in ((4, 2), (5, 3)):
            draws = random_min_letter_elements(rng, n, m, TABLE)
            elems = [next(draws) for _ in range(50)]
            for e in elems:
                for k in range(1, 6):
                    assert project_level(e, k) == e.level(k)
                assert weight_one_part_vanishes(e, 6)
                total += 1
            for e1, e2 in zip(elems[::2], elems[1::2]):
                assert verify_composition_additivity(e1, e2, 5).ok
                if e1 != e2:
                    assert any(e1.level(k) != e2.level(k)
                               for k in range(1, 6)), (n, m)
        assert total == 100


# ---------------------------------------------------------------------------
# 8. Rewriting soundness against the tensor-algebra oracle.


def _t_word(t):
    if isinstance(t, int):
        return letter(t)
    return bracket(_t_word(t[0]), _t_word(t[1]))


def _t_letters(t):
    return {t} if isinstance(t, int) else _t_letters(t[0]) | _t_letters(t[1])


def test_criterion_8_rewriting_soundness(request):
    with _criterion(request, 8, "bracket rewriting is exhaustively sound "
                                "and idempotent through weight 4; swap "
                                "and Jacobi hold in the tensor ring"):
        checked = 0
        # Every sign depends only on degree parity, so degrees 2 and 3
        # cover weight 4; the lighter weights also try degree 4.
        for weight, degree_choices in ((1, (2, 3, 4)), (2, (2, 3, 4)),
                                       (3, (2, 3, 4)), (4, (2, 3))):
            for tree in _trees(3, weight):
                word = _t_word(tree)
                used = sorted(_t_letters(tree))
                for degs in itertools.product(degree_choices, repeat=len(used)):
                    degree_of = dict(zip(used, degs))
                    mono = monomial_of_word(word, degree_of)
                    hall, residual = hall_normalize(mono)
                    if mono.has_square():
                        assert (hall, residual) == ({}, FormalSum({mono: 1}))
                    assert all(is_hall(w, 3) for w in hall), (word, degree_of)
                    assert all(m.has_square() for m, _ in residual.items())
                    rebuilt = FormalSum({monomial_of_word(w, degree_of): c
                                         for w, c in hall.items()})
                    assert tensor_expansion(mono) == \
                        tensor_expansion(rebuilt + residual), (word, degree_of)
                    assert hall_normalize(rebuilt) == (hall, FormalSum()), \
                        (word, degree_of)
                    checked += 1
        assert checked >= 3000

        rng = random.Random(8)
        sgn = lambda e: -1 if e % 2 else 1
        w12 = parse_word("[a1,a2]")
        for _ in range(30):
            p, q = rng.randint(2, 5), rng.randint(2, 5)
            degree_of = {1: p, 2: q}
            swapped = parse_bracket_expr("[a2,a1]", degree_of)
            hall, residual = hall_normalize(swapped)
            assert hall == {w12: sgn(p * q)} and not residual
            assert tensor_expansion(swapped) == tensor_expansion(FormalSum(
                [(monomial_of_word(w12, degree_of), sgn(p * q))]))

        for _ in range(30):
            p, q, r = (rng.randint(2, 5) for _ in range(3))
            degree_of = {1: p, 2: q, 3: r}
            jac = FormalSum((m, c * k)
                            for text, c in (("[[a1,a2],a3]", sgn(p * r)),
                                            ("[[a2,a3],a1]", sgn(p * q)),
                                            ("[[a3,a1],a2]", sgn(r * q)))
                            for m, k in parse_bracket_expr(text, degree_of).items())
            assert tensor_expansion(jac) == {}, (p, q, r)


# ---------------------------------------------------------------------------
# 9. Stabilization across sphere dimensions.


def test_criterion_9_stabilization(request):
    with _criterion(request, 9, "one degree up stabilizes at (Z/2)^N, "
                                "degree zero at Z^N"):
        rep = stabilization_report(1, range(3, 7), TABLE)
        assert rep.stable and not rep.warnings
        assert render_text(rep.stable_value) == "(Z/2)^N"
        rep0 = stabilization_report(0, range(2, 11), TABLE)
        assert rep0.stable and not rep0.warnings
        assert render_text(rep0.stable_value) == "Z^N"
