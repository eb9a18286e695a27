"""End-to-end command-line checks, run in process."""

import json
import random
import time

import pytest

from cechwedge import cli, elements, hall, spheres, whitehead
from cechwedge.cli import main
from cechwedge.groups import to_machine
from cechwedge.hilton import earring_formula
from cechwedge.spheres import seed_table
from cechwedge.whitehead import SparseEpsilon, parse_word
from test_elements import dropping
from test_spheres import primes_from


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


# ---------------------------------------------------------------------------
# Formula commands


@pytest.mark.parametrize("m,n,want", [
    (2, 2, "Z^N"),
    (2, 3, "Z^N (+) Z^N"),
    (2, 4, "(Z/2)^N (+) (Z/2)^N (+) Z^N"),
    (3, 2, "0 (trivial by connectivity)"),
    (3, 4, "(Z/2)^N"),
    (4, 5, "(Z/2)^N"),
    (5, 6, "(Z/2)^N"),
    (6, 7, "(Z/2)^N"),
])
def test_earring_goldens(capsys, m, n, want):
    rc, out, err = run(capsys, "cech", "earring", "-m", str(m), "-n", str(n))
    assert rc == 0 and err == ""
    assert out == want + "\n"


def test_earring_annotate(capsys):
    rc, out, _ = run(capsys, "cech", "earring", "-m", "2", "-n", "4",
                     "--annotate")
    assert rc == 0
    assert out.splitlines() == [
        "(Z/2)^N (+) (Z/2)^N (+) Z^N",
        "weight 1: pi_4(S^2) per stage, (Z/2)^N",
        "weight 2: pi_4(S^3) per stage, (Z/2)^N",
        "weight 3: pi_4(S^4) per stage, Z^N",
    ]


@pytest.mark.parametrize("argv", [
    ("cech", "wedge", "--grading", "1;1"),
    ("cech", "earring", "-m", "2"),
    ("cech", "earring", "-m", "2", "--annotate"),
], ids=["wedge", "earring", "earring-annotate"])
def test_limit_formulas_refuse_more_blocks_than_the_cap(capsys, monkeypatch,
                                                        argv):
    # degree n lists n - 1 height classes or weights here; the cap is
    # read when the command runs, before anything is listed
    monkeypatch.setattr(hall, "STRATUM_CAP", 50)
    rc, out, err = run(capsys, *argv, "-n", "60")
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(", cap is 50\n")
    assert err.count("\n") == 1 and "Traceback" not in err
    rc, out, err = run(capsys, *argv, "-n", "50")
    assert rc == 0 and out and err == ""


def test_stabilize_refuses_an_m_range_longer_than_the_cap(capsys, monkeypatch):
    # the cap is read before the m-range is sorted or any formula runs
    monkeypatch.setattr(hall, "STRATUM_CAP", 50)
    rc, out, err = run(capsys, "verify", "stabilize", "-s", "0",
                       "--m-range", "2..60")
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(", cap is 50\n")
    assert err.count("\n") == 1 and "Traceback" not in err
    rc, out, err = run(capsys, "verify", "stabilize", "-s", "0",
                       "--m-range", "2..50")
    assert (rc, out, err) == (0, "stable: Z^N\n", "")


@pytest.mark.parametrize("argv", [
    ("verify", "edge", "--random", "--m", "2", "--count", "1", "--levels"),
    ("verify", "theta", "--random", "--n", "3", "--m", "2", "--count", "1",
     "--levels"),
    ("verify", "edge", "--random", "--m", "2", "--levels", "2", "--count"),
], ids=["edge-levels", "theta-levels", "edge-count"])
def test_verify_refuses_more_levels_or_runs_than_the_cap(capsys, monkeypatch,
                                                         argv):
    # the cap is read when the command runs, before any element is drawn
    monkeypatch.setattr(hall, "STRATUM_CAP", 50)
    rc, out, err = run(capsys, *argv, "51")
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(", cap is 50\n")
    assert err.count("\n") == 1 and "Traceback" not in err
    rc, out, err = run(capsys, *argv, "50")
    assert (rc, out, err) == (0, "PASS\n", "")


@pytest.mark.parametrize("argv, size", [
    (("cech", "earring", "-m", "2", "-n", "99999999999999999999"),
     "99999999999999999998 weights"),
    (("verify", "stabilize", "-s", "0", "--m-range", "2..99999999999999999999"),
     "99999999999999999998 dimensions"),
    (("verify", "edge", "--random", "--m", "2",
      "--levels", "99999999999999999999"),
     "a tower of 99999999999999999999 levels"),
    (("verify", "edge", "--random", "--m", "2",
      "--count", "99999999999999999999"),
     "99999999999999999999 random runs"),
], ids=["earring", "stabilize", "levels", "count"])
def test_sizes_past_a_machine_integer_exit_2(capsys, argv, size):
    # len() of these ranges would overflow, so their sizes are counted;
    # a tower or a run count that large would never finish
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(
        " %s, cap is %d\n" % (size, hall.STRATUM_CAP))
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, small", [
    (("--grading", "1;99999999999999999999", "-n", "5"),
     ("--grading", "1;9", "-n", "5")),
    (("--grading", "99999999999999999999", "-n", "2", "--format", "json"),
     ("--grading", "9", "-n", "2", "--format", "json")),
], ids=["text", "json"])
def test_wedge_tail_past_a_machine_integer(capsys, argv, small):
    # no class below n reaches a tail >= n, whatever its size
    want = run(capsys, "cech", "wedge", *small)
    assert want[0] == 0 and want[2] == ""
    assert run(capsys, "cech", "wedge", *argv) == want


def test_wedge_mixed_grading(capsys):
    rc, out, _ = run(capsys, "cech", "wedge", "--grading", "1,2;3", "-n", "3")
    assert rc == 0
    assert out == "Z (+) Z\n"


def test_hall_listing(capsys):
    rc, out, _ = run(capsys, "hall", "-k", "2", "-J", "3")
    assert rc == 0
    assert out.splitlines() == [
        "a1\t1\t1",
        "a2\t1\t1",
        "[a1,a2]\t2\t2",
        "[a1,[a1,a2]]\t3\t3",
        "[a2,[a1,a2]]\t3\t3",
    ]


def test_hall_with_grading(capsys):
    rc, out, _ = run(capsys, "hall", "-k", "2", "-J", "2",
                     "--grading", "1,2;2")
    assert rc == 0
    assert out.splitlines() == ["a1\t1\t1", "a2\t1\t2", "[a1,a2]\t2\t3"]


def test_count(capsys):
    rc, out, _ = run(capsys, "count", "-k", "3", "-j", "3")
    assert rc == 0 and out == "8\n"


def test_count_at_the_digit_limit(capsys, default_digit_limit):
    rc, out, _ = run(capsys, "count", "-k", "10", "-j", "4303")
    assert rc == 0 and len(out.strip()) == 4300


def test_count_refuses_before_computing(capsys, monkeypatch,
                                        default_digit_limit):
    def boom(k, j):
        raise AssertionError("necklace_count was called")

    monkeypatch.setattr(cli, "necklace_count", boom)
    rc, out, err = run(capsys, "count", "-k", "7", "-j", "10000000")
    assert rc == 2 and out == ""
    assert err == ("error: the count has more than 4300 digits, too many "
                   "to print\n")


def test_count_one_letter_without_factoring(capsys, monkeypatch):
    def boom(n):
        raise AssertionError("j was factored")

    monkeypatch.setattr(hall, "_divisors", boom)
    monkeypatch.setattr(hall, "_mobius", boom)
    rc, out, _ = run(capsys, "count", "-k", "1", "-j", "1000000000000000000")
    assert rc == 0 and out == "0\n"
    rc, out, _ = run(capsys, "count", "-k", "1", "-j", "1")
    assert rc == 0 and out == "1\n"


def test_hm_decomposition(capsys):
    rc, out, _ = run(capsys, "hm", "-n", "4", "-k", "2", "-m", "2",
                     "--annotate")
    assert rc == 0
    assert out.splitlines() == [
        "a1\tpi_4(S^2)\tZ/2",
        "a2\tpi_4(S^2)\tZ/2",
        "[a1,a2]\tpi_4(S^3)\tZ/2",
        "[a1,[a1,a2]]\tpi_4(S^4)\tZ",
        "[a2,[a1,a2]]\tpi_4(S^4)\tZ",
        "total\tZ/2 (+) Z/2 (+) Z/2 (+) Z (+) Z",
    ]


def test_hm_trivial(capsys):
    rc, out, _ = run(capsys, "hm", "-n", "2", "-k", "5", "-m", "3")
    assert rc == 0
    assert out == "0 (trivial by connectivity)\n"


def test_hm_json_encodes_a_trivial_summand_as_zero(capsys, tmp_path):
    p = tmp_path / "table.txt"
    p.write_text("pi 10 6 = 0\n")
    rc, out, _ = run(capsys, "hm", "-n", "10", "-k", "1", "--grading", "5",
                     "--table", str(p), "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["summands"] == [{"word": "a1", "sphere": 6,
                                "group": {"kind": "zero"}}]
    assert doc["total"] == {"kind": "zero"}
    assert doc["trivial_by_connectivity"] is False


def test_hm_json_flags_trivial_by_connectivity(capsys):
    rc, out, _ = run(capsys, "hm", "-n", "2", "-k", "3", "-m", "4",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["trivial_by_connectivity"] is True and doc["summands"] == []


# Each listing's heights come from one fold, in dimension_truncation; hm
# folds once more for the word labels, verify theta once more for the
# HallWords of its word pool, and a trivial hm folds nothing.
@pytest.mark.parametrize("argv,folds", [
    (("hm", "-n", "7", "-k", "6", "--grading", "1,1,1;1"), 2),
    (("hm", "-n", "7", "-k", "6", "--grading", "1,1,1;1", "--format", "json"),
     2),
    (("cech", "wedge", "--grading", "1,1,1,1;2", "-n", "8"), 1),
    (("verify", "theta", "--random", "--n", "7", "--m", "3"), 2),
    (("hm", "-n", "2", "-k", "3", "-m", "4"), 0),
], ids=["hm-text", "hm-json", "cech-wedge", "verify-theta-random", "hm-trivial"])
def test_each_listing_is_folded_once(capsys, monkeypatch, argv, folds):
    calls = []
    fold = hall._fold

    def counted_fold(*args):
        calls.append(None)
        return fold(*args)

    monkeypatch.setattr(hall, "_fold", counted_fold)
    hall.generate.cache_clear()
    hall.dimension_truncation.cache_clear()
    rc, _, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    assert len(calls) == folds


def _count_brackets(monkeypatch):
    """Clear the listing caches and count hall.bracket calls from now on."""
    built = []
    bracket = hall.bracket

    def counted_bracket(x, y):
        built.append(None)
        return bracket(x, y)

    monkeypatch.setattr(hall, "bracket", counted_bracket)
    hall.generate.cache_clear()
    hall.dimension_truncation.cache_clear()
    return built


# A bulk listing stays two integer columns: the formula commands read
# labels and heights from them and build no HallWord.
@pytest.mark.parametrize("argv", [
    ("hall", "-k", "40", "-J", "3"),
    ("hall", "-k", "4", "-J", "6", "--grading", "1,2;3", "--format", "json"),
    ("hm", "-n", "7", "-k", "6", "--grading", "1,1,1;1"),
    ("hm", "-n", "7", "-k", "6", "--grading", "1,1,1;1", "--format", "json"),
    ("hm", "-n", "8", "-k", "4", "--grading", "1,2;3", "--annotate"),
    ("cech", "wedge", "--grading", "1,1,1,1;2", "-n", "8"),
], ids=["hall", "hall-json", "hm-text", "hm-json", "hm-mixed-annotate",
        "cech-wedge"])
def test_formula_commands_build_no_hall_word(capsys, monkeypatch, argv):
    built = _count_brackets(monkeypatch)
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and out and err == ""
    assert built == []


def test_the_bracket_count_sees_words_built(monkeypatch):
    # the control of the test above: materializing does call bracket
    built = _count_brackets(monkeypatch)
    listing = hall.generate(3, 4)
    assert built == []
    listing.words()
    assert len(built) == len(listing) - 3


@pytest.mark.parametrize("n,k,spec", [
    (2, 1, "1"), (4, 2, "1"), (6, 2, "1"), (7, 6, "1,1,1;1"),
    (8, 4, "1,2;3"), (9, 3, "2"), (11, 2, "1,1;3"), (5, 3, "4"),
])
def test_hm_total_is_the_normalized_sum_of_every_summand(capsys, n, k, spec):
    # hm adds the total up per distinct group; the route here normalizes
    # the direct sum of all summands' groups, one part per summand
    from cechwedge.groups import DirectSum, normalize, render_text
    from cechwedge.hilton import decompose_wedge
    dec = decompose_wedge(n, k, hall.GradingSequence.parse(spec),
                          seed_table())
    want = normalize(DirectSum(tuple(g for _, g in dec.summands)))
    assert dec.total() == want
    argv = ("hm", "-n", str(n), "-k", str(k), "--grading", spec)
    rc, out, _ = run(capsys, *argv, "--format", "json")
    assert rc == 0 and json.loads(out)["total"] == to_machine(want)
    rc, out, _ = run(capsys, *argv, "--annotate")
    assert rc == 0
    if dec.summands:
        assert out.splitlines()[-1] == "total\t" + render_text(want)


@pytest.mark.parametrize("argv", [
    ("-n", "7", "-k", "6", "--grading", "1,1,1;1"),  # 9,695 summands
    ("-n", "11", "-k", "2", "--grading", "1,1;3"),   # symbolic groups
    ("-n", "8", "-k", "4", "--grading", "1,2;3"),
    ("-n", "4", "-k", "2", "-m", "2"),
    ("-n", "2", "-k", "1", "-m", "2"),      # a total of one part
    ("-n", "2", "-k", "3", "-m", "4"),      # no summands
], ids=str)
def test_hm_json_prints_the_sorted_key_encoding(capsys, argv):
    # hm writes its record out by hand; it must be the bytes json.dumps
    # with sorted keys makes of the same record built from the library
    from cechwedge.hilton import decompose_wedge
    rc, out, _ = run(capsys, "hm", *argv, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True) + "\n"
    dec = decompose_wedge(doc["n"], doc["k"],
                          hall.GradingSequence.parse(doc["grading"]),
                          seed_table())
    assert doc["summands"] == [
        {"word": str(w), "sphere": h + 1, "group": to_machine(g)}
        for (w, g), h in zip(dec.summands, dec.heights)]
    assert doc["total"] == to_machine(dec.total())
    assert doc["trivial_by_connectivity"] is (not dec.summands)


# ---------------------------------------------------------------------------
# Verification commands


def test_verify_edge_random(capsys):
    rc, out, err = run(capsys, "verify", "edge", "--random", "--seed", "7",
                       "--m", "2", "--levels", "6")
    assert rc == 0 and out == "PASS\n" and err == ""


def test_verifiers_but_edge_take_a_table(capsys):
    # verify edge refuses --table (test_usage_errors); theta still reads one
    rc, out, _ = run(capsys, "verify", "theta", "--random", "--n", "4",
                     "--m", "2", "--count", "1", "--table", "seed")
    assert rc == 0 and out == "PASS\n"


def test_verify_edge_random_catches_a_lossy_matrix_sum(capsys, monkeypatch):
    add = SparseEpsilon.__add__

    def lossy_add(self, other):
        return SparseEpsilon(add(self, other).entries[1:])

    monkeypatch.setattr(SparseEpsilon, "__add__", lossy_add)
    rc, out, err = run(capsys, "verify", "edge", "--random", "--seed", "7",
                       "--m", "2", "--levels", "3", "--count", "2")
    assert rc == 1 and out == "FAIL\n"
    assert err == (
        "run 0: level 2: projection {[a1,a2]: 1} != coordinates {}; "
        "level 3: projection {[a1,a2]: 1, [a1,a3]: -3, [a2,a3]: -3} != "
        "coordinates {[a1,a3]: -3, [a2,a3]: -3}\n")


def test_verify_edge_random_catches_a_lossy_projection(capsys, monkeypatch):
    # Only the first run's eps loses [a1,a2] from its projection, so the
    # projections of eps and delta no longer add up to the levels of
    # eps + delta in that run alone.
    eps = elements.random_sparse_epsilon(random.Random(7))
    monkeypatch.setattr(elements, "project_levels", dropping(
        whitehead.project_levels, parse_word("[a1,a2]"),
        target=elements.weight_two_element(2, eps)))
    rc, out, err = run(capsys, "verify", "edge", "--random", "--seed", "7",
                       "--m", "2", "--levels", "3", "--count", "2")
    assert rc == 1 and out == "FAIL\n"
    assert err == (
        "run 0: level 2: projection {[a1,a2]: 3} != coordinates {[a1,a2]: 1}; "
        "level 3: projection {[a1,a2]: 3, [a1,a3]: -3, [a2,a3]: -3} != "
        "coordinates {[a1,a2]: 1, [a1,a3]: -3, [a2,a3]: -3}\n")


def _count_walks(monkeypatch):
    """Count element walks and projection walks; refuse any level built
    outside a walk."""
    counts = {"walk": 0, "project": 0}
    walk, project = elements.CoherentElement.walk, whitehead.project_levels

    def counted_walk(self, kmax):
        counts["walk"] += 1
        return walk(self, kmax)

    def counted_project(e, kmax):
        counts["project"] += 1
        return project(e, kmax)

    def refuse(self, k):
        raise AssertionError("a level was built outside a walk")

    monkeypatch.setattr(elements.CoherentElement, "walk", counted_walk)
    monkeypatch.setattr(elements.CoherentElement, "level", refuse)
    monkeypatch.setattr(elements, "project_levels", counted_project)
    monkeypatch.setattr(whitehead, "project_levels", counted_project)
    return counts


def test_verify_edge_random_work_per_run(capsys, monkeypatch):
    # Per run: one additivity check walks the projections of eps and of
    # delta and the levels of eps + delta.
    counts = _count_walks(monkeypatch)
    rc, out, err = run(capsys, "verify", "edge", "--random", "--m", "2",
                       "--levels", "6", "--count", "5")
    assert rc == 0 and out == "PASS\n" and err == ""
    assert counts == {"walk": 1 * 5, "project": 2 * 5}


def test_verify_theta_random_work_per_run(capsys, monkeypatch):
    # Per run: the same additivity check on two least-letter families.
    counts = _count_walks(monkeypatch)
    rc, out, err = run(capsys, "verify", "theta", "--random", "--n", "4",
                       "--m", "2", "--levels", "5", "--count", "5")
    assert rc == 0 and out == "PASS\n" and err == ""
    assert counts == {"walk": 1 * 5, "project": 2 * 5}


def test_verify_theta_random(capsys):
    rc, out, err = run(capsys, "verify", "theta", "--random", "--seed", "3",
                       "--n", "4", "--m", "2", "--count", "10")
    assert rc == 0 and out == "PASS\n" and err == ""


def test_verify_theta_random_catches_a_lossy_projection(capsys, monkeypatch):
    # The second element of run 0 is 1 on [a3,[a1,a2]]; its projection
    # loses that word, so the two projections miss it in the sum.
    monkeypatch.setattr(elements, "project_levels", dropping(
        whitehead.project_levels, parse_word("[a3,[a1,a2]]")))
    rc, out, err = run(capsys, "verify", "theta", "--random", "--seed", "3",
                       "--n", "4", "--m", "2", "--levels", "3", "--count", "2")
    assert rc == 1 and out == "FAIL\n"
    assert err == ("run 0: level 3: projection {} != coordinates "
                   "{[a3,[a1,a2]]: 1}\n")


@pytest.mark.parametrize("n,m", [(2, 2), (4, 3), (8, 4)])
def test_verify_theta_random_refuses_an_empty_word_pool(capsys, n, m):
    # no Hall word of weight >= 2 on a1..a4 has a nonzero group in the
    # seed table, so every drawn element would be zero
    rc, out, err = run(capsys, "verify", "theta", "--random", "--n", str(n),
                       "--m", str(m))
    assert rc == 2 and out == ""
    assert err == ("error: no Hall word of weight >= 2 on a1..a4 has a "
                   "nonzero resolved group in degree %d, so every random "
                   "element would be zero\n" % n)


def test_verify_theta_random_builds_its_word_pool_once(capsys, monkeypatch):
    # The pool depends only on (n, m, table), so one command run builds
    # it once; after that each drawn element looks up only its own (at
    # most three) words.
    counts = {"pool": 0, "lookup": 0}
    pool, lookup = elements._resolvable_pool, spheres.SphereGroupTable.lookup

    def counted_pool(*args, **kwargs):
        counts["pool"] += 1
        return pool(*args, **kwargs)

    def counted_lookup(self, n, q):
        counts["lookup"] += 1
        return lookup(self, n, q)

    monkeypatch.setattr(elements, "_resolvable_pool", counted_pool)
    monkeypatch.setattr(spheres.SphereGroupTable, "lookup", counted_lookup)
    rc, out, err = run(capsys, "verify", "theta", "--random", "--n", "7",
                       "--m", "3", "--levels", "8", "--count", "20")
    assert rc == 0 and out == "PASS\n" and err == ""
    candidates = sum(1 for w in hall.dimension_truncation(
        4, 7, hall.GradingSequence.constant(2))[0].words()
        if w.length >= 2)
    assert counts["pool"] == 1
    assert counts["lookup"] <= candidates + 3 * 2 * 20


def test_verify_edge_file(capsys, tmp_path, monkeypatch):
    p = tmp_path / "e.txt"
    p.write_text("element n=3 m=2\neps 1 2 = 2\neps 2 5 = -1\n")
    rc, out, _ = run(capsys, "verify", "edge", "--m", "2", "--file", str(p))
    assert rc == 0 and out == "PASS\n"
    # support lines make it a mixed element, which edge cannot take
    for text in ("element n=3 m=2\nsupport a1 = 1\neps 1 2 = 2\n",
                 "element n=3 m=2\nsupport [a1,a2] = 1\n"):
        p.write_text(text)
        rc, _, err = run(capsys, "verify", "edge", "--m", "2", "--file", str(p))
        assert rc == 2
        assert err == ("error: element file must describe a pure weight-2 "
                       "family (eps lines only)\n")
    # a projection that loses a word fails the realization check
    p.write_text("element n=3 m=2\neps 1 2 = 2\neps 2 3 = -1\n")
    monkeypatch.setattr(elements, "project_levels", dropping(
        whitehead.project_levels, parse_word("[a2,a3]")))
    rc, out, err = run(capsys, "verify", "edge", "--m", "2", "--file", str(p),
                       "--levels", "3")
    assert rc == 1 and out == "FAIL\n"
    assert err == ("level 3: projection {[a1,a2]: 2} != coordinates "
                   "{[a1,a2]: 2, [a2,a3]: -1}\n")


_THREE_ENTRIES = "element n=3 m=2\neps 1 2 = 1\neps 2 3 = -2\neps 1 3 = 4\n"


def test_verify_edge_file_keeps_the_second_diagonal(capsys, tmp_path):
    # [a1,a3] sits on the diagonal j - i = 2, which the projection reads
    # from the stored entries and the element's walk from the matrix
    p = tmp_path / "e.txt"
    p.write_text(_THREE_ENTRIES)
    rc, out, _ = run(capsys, "verify", "edge", "--m", "2", "--levels", "5",
                     "--file", str(p))
    assert rc == 0 and out == "PASS\n"


def test_verify_edge_file_catches_a_matrix_reader_that_drops_a_diagonal(
        capsys, tmp_path, monkeypatch):
    # a fault in SparseEpsilon.nonzero reaches the element's walk only,
    # so the projection, which reads the stored entries, still holds
    # [a1,a3]
    nonzero = SparseEpsilon.nonzero

    def dropping_diagonal(self, kmax):
        return {(i, j): c for (i, j), c in nonzero(self, kmax).items()
                if j - i != 2}

    monkeypatch.setattr(SparseEpsilon, "nonzero", dropping_diagonal)
    p = tmp_path / "e.txt"
    p.write_text(_THREE_ENTRIES)
    rc, out, err = run(capsys, "verify", "edge", "--m", "2", "--levels", "5",
                       "--file", str(p))
    assert rc == 1 and out == "FAIL\n"
    assert "[a1,a3]" in err
    assert err.count("level ") == 3  # levels 3, 4 and 5


def test_verify_edge_file_refuses_a_zero_matrix(capsys, tmp_path):
    # eps lines that cancel describe the zero matrix, which is no
    # weight-2 family: there would be nothing to compare
    p = tmp_path / "e.txt"
    p.write_text("element n=3 m=2\neps 1 2 = 1\neps 1 2 = -1\n")
    rc, out, err = run(capsys, "verify", "edge", "--m", "2", "--file", str(p))
    assert rc == 2 and out == ""
    assert err == ("error: element file must describe a pure weight-2 "
                   "family (eps lines only)\n")


def test_verify_edge_file_reports_a_bad_eps_pair_with_its_line(capsys, tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("element n=3 m=2\neps 1 2 = 1\neps 2 1 = 1\n")
    rc, out, err = run(capsys, "verify", "edge", "--m", "2", "--file", str(p))
    assert rc == 2 and out == ""
    assert err == ("error: bad element file %s: line 3: epsilon entries "
                   "need 1 <= i < j, got (2, 1)\n" % p)


def test_verify_theta_file(capsys, tmp_path, monkeypatch):
    p = tmp_path / "e.txt"
    p.write_text("element n=4 m=2\ngtuple 1 [a1,[a1,a2]] = 2\n"
                 "gtuple 2 [a2,[a2,a3]] = -1\n")
    rc, out, _ = run(capsys, "verify", "theta", "--n", "4", "--m", "2",
                     "--file", str(p))
    assert rc == 0 and out == "PASS\n"
    # support lines on deep words are the same kind of coordinates
    p.write_text("element n=4 m=2\nsupport [a1,[a1,a2]] = 2\n"
                 "support [a2,[a2,a3]] = -1\n")
    rc, out, _ = run(capsys, "verify", "theta", "--n", "4", "--m", "2",
                     "--file", str(p))
    assert rc == 0 and out == "PASS\n"
    # a weight-1 coordinate or a matrix is not a least-letter family
    for extra in ("support a1 = 1\n", "eps 1 2 = 1\n"):
        p.write_text("element n=3 m=2\ngtuple 1 [a1,a2] = 1\n" + extra)
        rc, _, err = run(capsys, "verify", "theta", "--n", "3", "--m", "2",
                         "--file", str(p))
        assert rc == 2
        assert err == ("error: element file must describe a least-letter "
                       "family (no eps lines, no weight-1 words)\n")
    # the same realization check as edge: a lossy projection fails it
    p.write_text("element n=4 m=2\ngtuple 1 [a1,[a1,a2]] = 2\n"
                 "gtuple 2 [a2,[a2,a3]] = -1\n")
    monkeypatch.setattr(elements, "project_levels", dropping(
        whitehead.project_levels, parse_word("[a1,[a1,a2]]")))
    rc, out, err = run(capsys, "verify", "theta", "--n", "4", "--m", "2",
                       "--file", str(p), "--levels", "3", "--format", "json")
    assert rc == 1
    assert json.loads(out)["failures"] == [
        "level 2: projection {} != coordinates {[a1,[a1,a2]]: 2}",
        "level 3: projection {[a2,[a2,a3]]: -1} != coordinates "
        "{[a1,[a1,a2]]: 2, [a2,[a2,a3]]: -1}"]


@pytest.mark.parametrize("header,argv,names", [
    ("element n=5 m=3\neps 1 2 = 1\n",
     ("verify", "edge", "--m", "2"), ("m=3", "--m is 2")),
    ("element n=4 m=2\ngtuple 1 [a1,[a1,a2]] = 1\n",
     ("verify", "theta", "--n", "7", "--m", "5"), ("n=4", "--n is 7")),
    ("element n=4 m=2\ngtuple 1 [a1,[a1,a2]] = 1\n",
     ("verify", "theta", "--n", "4", "--m", "3"), ("m=2", "--m is 3")),
])
def test_verify_file_header_must_match_flags(capsys, tmp_path, header, argv,
                                             names):
    p = tmp_path / "e.txt"
    p.write_text(header)
    rc, out, err = run(capsys, *argv, "--file", str(p), "--format", "json")
    assert rc == 2 and out == "" and err.startswith("error:")
    for name in names:
        assert name in err


def test_verify_coherence_file(capsys, tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("element n=3 m=2\nsupport a1 = 2\neps 1 2 = 1\neps 2 4 = -3\n")
    rc, out, _ = run(capsys, "verify", "coherence", "--file", str(p),
                     "--levels", "5")
    assert rc == 0 and out == "PASS\n"
    rc, out, err = run(capsys, "verify", "coherence", "--file", str(p),
                       "--levels", "0")
    assert rc == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("verify", "edge", "--m", "2", "--random"),
    ("verify", "theta", "--n", "4", "--m", "2", "--random"),
    ("verify", "edge", "--m", "2", "--file", "EPS"),
    ("verify", "coherence", "--file", "EPS"),
])
def test_verify_refuses_a_single_level(capsys, tmp_path, argv):
    # level 1 holds no word of weight >= 2, and check_coherence applies
    # no bonding map below two levels, so one level compares nothing
    p = tmp_path / "e.txt"
    p.write_text("element n=3 m=2\neps 1 2 = 2\n")
    argv = [str(p) if a == "EPS" else a for a in argv]
    rc, out, err = run(capsys, *argv, "--levels", "1", "--format", "json")
    assert rc == 2 and out == ""
    assert err == "error: --levels must be >= 2: level 1 alone compares nothing\n"
    rc, out, _ = run(capsys, *argv, "--levels", "2", "--format", "json")
    assert rc == 0 and json.loads(out)["ok"] is True


def test_verify_file_mode_ignores_count(capsys, tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("element n=3 m=2\neps 1 2 = 2\n")
    rc, out, err = run(capsys, "verify", "edge", "--m", "2", "--file", str(p),
                       "--count", "0", "--format", "json")
    assert rc == 0 and err == "" and json.loads(out)["runs"] == 1


def test_verify_stabilize(capsys):
    rc, out, err = run(capsys, "verify", "stabilize", "-s", "1",
                       "--m-range", "3..6")
    assert rc == 0 and err == ""
    assert out == "stable: (Z/2)^N\n"
    rc, out, _ = run(capsys, "verify", "stabilize", "-s", "0",
                     "--m-range", "2..5")
    assert rc == 0 and out == "stable: Z^N\n"


def test_verify_stabilize_annotate(capsys):
    rc, out, _ = run(capsys, "verify", "stabilize", "-s", "1",
                     "--m-range", "3..4", "--annotate")
    assert rc == 0
    assert out.splitlines() == ["stable: (Z/2)^N", "m=3: (Z/2)^N",
                                "m=4: (Z/2)^N"]


def test_verify_stabilize_failure(capsys):
    rc, out, err = run(capsys, "verify", "stabilize", "-s", "2",
                       "--m-range", "4..6")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "not stable"
    assert len(lines) == 4          # per-m entries follow on failure
    assert err != ""                # unresolved symbols warn on stderr


# ---------------------------------------------------------------------------
# Exit codes and errors


@pytest.mark.parametrize("argv", [
    ("cech", "earring", "-m", "1", "-n", "3"),
    ("cech", "wedge", "--grading", "bogus", "-n", "3"),
    ("cech", "earring", "-m", "2", "-n", "3", "--table", "/nonexistent"),
    ("verify", "edge", "--m", "2"),
    ("verify", "theta", "--n", "4", "--m", "2"),
    ("verify", "stabilize", "-s", "1", "--m-range", "6..3"),
    ("verify", "stabilize", "-s", "-1", "--m-range", "3..4"),
    ("hm", "-n", "4", "-k", "2"),
    ("hall", "-k", "2", "-J", "3", "--grading", "x"),
    ("verify", "edge", "--m", "2", "--random", "--levels", "0"),
    ("verify", "edge", "--m", "2", "--random", "--count", "0"),
    ("verify", "theta", "--n", "4", "--m", "2", "--random", "--levels", "0"),
    ("verify", "theta", "--n", "4", "--m", "2", "--random", "--count", "-1"),
    ("cech", "wedge", "--grading", "1,1,1,1;2", "-n", "13"),
    ("hall", "-k", "40", "-J", "6"),
    ("hm", "-n", "60", "-k", "3", "-m", "2"),
    ("count", "-k", "7", "-j", "1000000"),
    ("count", "-k", "100000", "-j", "100000", "--format", "json"),
    # --annotate exists only on cech earring, hm and verify stabilize
    ("cech", "wedge", "--grading", "1;2", "-n", "3", "--annotate"),
    ("hall", "-k", "2", "-J", "3", "--annotate"),
    ("count", "-k", "3", "-j", "3", "--annotate"),
    ("verify", "edge", "--m", "2", "--random", "--annotate"),
    ("verify", "theta", "--n", "4", "--m", "2", "--random", "--annotate"),
    ("verify", "coherence", "--file", "e.txt", "--annotate"),
    # fewer than two dimensions m >= s + 2 leave nothing to compare
    ("verify", "stabilize", "-s", "1", "--m-range", "3..3"),
    ("verify", "stabilize", "-s", "1", "--m-range", "2..3"),
    ("verify", "stabilize", "-s", "5", "--m-range", "2..3"),
    ("count", "-k", "10", "-j", "4304"),
    ("hm", "-n", "4", "-k", "2", "-m", "1"),
    ("hm", "-n", "4", "-k", "2", "-m", "3", "--grading", "1"),
    # BINARY stands for a file holding bytes that are not UTF-8
    ("verify", "coherence", "--file", "BINARY"),
    ("cech", "earring", "-m", "2", "-n", "3", "--table", "BINARY"),
    # edge elements are integer matrices, so verify edge reads no table
    ("verify", "edge", "--m", "2", "--random", "--table", "seed"),
    ("verify", "edge", "--m", "2", "--file", "e.txt", "--table", "seed"),
    # edge and theta take exactly one of --random and --file
    ("verify", "edge", "--m", "2", "--random", "--file", "e.txt"),
    ("verify", "theta", "--n", "4", "--m", "2", "--random", "--file", "e.txt"),
    # a single level compares nothing; an empty word pool draws only zero
    ("verify", "edge", "--m", "2", "--random", "--levels", "1"),
    ("verify", "theta", "--n", "4", "--m", "2", "--random", "--levels", "1"),
    ("verify", "theta", "--n", "2", "--m", "2", "--random"),
    # an empty file name is a file that cannot be read, not random mode
    ("verify", "edge", "--m", "2", "--file", ""),
    # FILE:<text> stands for an element file holding <text>, whose line 2
    # makes an error that shows only when the element is built
    ("verify", "coherence", "--file", "FILE:element n=3 m=2\ngtuple 1 a1 = 1\n"),
    ("verify", "coherence", "--file",
     "FILE:element n=4 m=2\ngtuple 2 [a1,[a1,a2]] = 1\n"),
    ("verify", "coherence", "--file", "FILE:element n=3 m=2\nsupport [a2,a1] = 1\n"),
    ("verify", "coherence", "--file",
     "FILE:# pi_9(S^4) is not in the table\nsupport [a1,[a1,a2]] = 1\n"
     "element n=9 m=2\n"),
    ("verify", "coherence", "--file",
     "FILE:element n=4 m=2\nsupport [a1,[a1,a2]] = 1,2\n"),
    # a header value out of range, and an eps line the degree cannot hold
    ("verify", "coherence", "--file", "FILE:# one sphere\nelement n=1 m=2\n"),
    ("verify", "coherence", "--file", "FILE:# one-spheres\nelement n=3 m=1\n"),
    ("verify", "coherence", "--file", "FILE:element n=4 m=2\neps 1 2 = 1\n"),
    # an eps entry is one integer, not a coordinate tuple
    ("verify", "edge", "--m", "2", "--levels", "3", "--file",
     "FILE:element n=3 m=2\neps 1 2 = 3,4\n"),
    # sizes that len() cannot hold
    ("cech", "earring", "-m", "2", "-n", "99999999999999999999"),
    ("verify", "stabilize", "-s", "0", "--m-range", "2..99999999999999999999"),
    # a word with a character no token starts with
    ("verify", "coherence", "--file", "FILE:element n=3 m=2\nsupport [a1,x2] = 1\n"),
    ("verify", "coherence", "--file",
     "FILE:element n=3 m=2\ngtuple 1 [a1,a2]! = 1\n"),
])
def test_usage_errors(capsys, tmp_path, default_digit_limit, argv):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe")
    element = tmp_path / "element.txt"
    element_text = next((a[len("FILE:"):] for a in argv
                         if a.startswith("FILE:")), None)
    if element_text is not None:
        element.write_text(element_text, encoding="utf-8")
    argv = [str(binary) if a == "BINARY"
            else str(element) if a.startswith("FILE:") else a for a in argv]
    # argparse rejects an unknown flag, two exclusive flags, or neither
    # of --random and --file itself
    if ("--annotate" in argv or {"-m", "--grading"} <= set(argv)
            or argv[1] == "edge" and "--table" in argv
            or argv[1] in ("edge", "theta")
            and ("--random" in argv) == ("--file" in argv)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        rc, prefix = exc.value.code, "usage:"
    else:
        rc, prefix = main(argv), "error:"
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    if str(binary) in argv:
        assert err.startswith("error: cannot read ")
        assert " %s: " % binary in err
    if element_text is not None:
        assert err.startswith("error: bad element file %s: line 2: " % element)


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Machine output


def test_json_earring_round_trip(capsys):
    rc, out, _ = run(capsys, "cech", "earring", "-m", "2", "-n", "4",
                     "--format", "json")
    assert rc == 0
    data = json.loads(out)
    expr = earring_formula(4, 2, seed_table())
    assert data == to_machine(expr)


def test_json_count(capsys):
    rc, out, _ = run(capsys, "count", "-k", "3", "-j", "3",
                     "--format", "json")
    assert json.loads(out) == {"k": 3, "weight": 3, "count": 8}


def test_json_verify_verdict(capsys):
    rc, out, _ = run(capsys, "verify", "edge", "--random", "--seed", "1",
                     "--m", "3", "--count", "5", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["ok"] is True and data["check"] == "edge"
    assert data["runs"] == 5 and data["failures"] == []


def test_json_hm_groups(capsys):
    rc, out, _ = run(capsys, "hm", "-n", "3", "-k", "2", "-m", "2",
                     "--format", "json")
    data = json.loads(out)
    assert [s["word"] for s in data["summands"]] == ["a1", "a2", "[a1,a2]"]
    assert data["summands"][2]["group"] == {"kind": "finite", "rank": 1,
                                            "torsion": []}


# ---------------------------------------------------------------------------
# Determinism and table loading


def test_seeded_runs_are_identical(capsys):
    argv = ("verify", "theta", "--random", "--seed", "5", "--n", "4",
            "--m", "2", "--count", "5")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_table_from_environment(capsys, tmp_path, monkeypatch):
    p = tmp_path / "table.txt"
    p.write_text("pi 3 2 = Z/5\n")
    monkeypatch.setenv("CECHWEDGE_TABLE", str(p))
    rc, out, _ = run(capsys, "cech", "earring", "-m", "2", "-n", "3")
    assert rc == 0 and out == "(Z/5)^N (+) Z^N\n"
    # explicit seed request beats the environment
    rc, out, _ = run(capsys, "cech", "earring", "-m", "2", "-n", "3",
                     "--table", "seed")
    assert rc == 0 and out == "Z^N (+) Z^N\n"


def test_table_line_past_the_torsion_cap_exits_2_quickly(capsys, tmp_path):
    p = tmp_path / "table.txt"
    p.write_text("pi 3 2 = Z/2\npi 9 2 = (Z/2)^2000000\n")
    start = time.perf_counter()
    rc, out, err = run(capsys, "cech", "earring", "-m", "2", "-n", "3",
                       "--table", str(p))
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert err == ("error: line 2: more than %d cyclic torsion factors in "
                   "'(Z/2)^2000000'\n" % spheres.MAX_TORSION_FACTORS)


@pytest.mark.parametrize("group, text, torsion", [
    ("Z/99999999999999999989", "(Z/99999999999999999989)^N (+) Z^N\n",
     [99999999999999999989]),
    ("(Z/1000000000039)^10000", "((Z/1000000000039)^10000)^N (+) Z^N\n",
     [1000000000039] * 10000),
], ids=["prime", "power"])
def test_table_groups_print_in_text_and_json(capsys, tmp_path, group, text,
                                             torsion):
    p = tmp_path / "table.txt"
    p.write_text("pi 5 3 = %s\n" % group)
    argv = ("cech", "earring", "-m", "3", "-n", "5", "--table", str(p))
    start = time.perf_counter()
    assert run(capsys, *argv) == (0, text, "")
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert time.perf_counter() - start < 2.0
    assert rc == 0 and err == ""
    prod = {"kind": "prod_n", "children": [
        {"kind": "finite", "rank": 0, "torsion": torsion}]}
    assert json.loads(out)["children"][0] == prod


def test_table_line_past_the_digit_limit_exits_2(capsys, tmp_path,
                                                 default_digit_limit):
    # the sum of Z/p over the 800 primes above 10**6 has one invariant
    # factor of about 4,800 digits, which could not be printed
    p = tmp_path / "table.txt"
    p.write_text("pi 5 3 = %s\n" % " + ".join(
        "Z/%d" % q for q in primes_from(10**6, 800)))
    start = time.perf_counter()
    rc, out, err = run(capsys, "cech", "earring", "-m", "3", "-n", "5",
                       "--table", str(p))
    assert time.perf_counter() - start < 2.0
    assert (rc, out) == (2, "")
    assert err == ("error: line 1: an invariant factor has more than 4300 "
                   "digits, too many to print\n")


def test_unresolved_groups_stay_symbolic(capsys):
    rc, out, _ = run(capsys, "cech", "earring", "-m", "2", "-n", "9")
    assert rc == 0
    assert "(pi_9(S^2))^N" in out
