#!/usr/bin/env python3
"""Mutation check: every listed mutant must fail the tests named for it.

    python3 tools/mutants.py

A mutant is (name, file, old text, new text, test node ids).  For each
one the script copies src/, tests/, tools/, perfbench/ and pyproject.toml
into a fresh temporary directory (pyproject.toml carries pythonpath =
["src", "tools"], so pytest there imports the mutated copy), replaces
the old text, which must occur exactly once in its file, and runs

    python -m pytest -q -x -p no:cacheprovider <test node ids>

in that directory.  The mutant is killed when pytest reports failing
tests (exit code 1); any other outcome, such as a node id that no longer
exists, counts as a survivor.  Before the mutants, the union of all
named tests runs once on an unmutated copy and must pass, so a broken
environment cannot pass for a killed mutant.

Exit 0 when every mutant is killed, 1 when one survives or an old text
does not occur exactly once.  Stdlib only, and not part of Tier-1: a
run of every mutant takes about 70 s on a 2-vCPU machine.
tests/test_mutants.py checks in Tier-1 that every old text still
occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

E = "src/cechwedge/elements.py"
GROUPS = "src/cechwedge/groups.py"
CLI = "src/cechwedge/cli.py"
HALL = "src/cechwedge/hall.py"
HILTON = "src/cechwedge/hilton.py"
RECORDS = "src/cechwedge/records.py"
WH = "src/cechwedge/whitehead.py"

T_ELEMENTS = "tests/test_elements.py::"
T_CLI = "tests/test_cli.py::"
T_WH = "tests/test_whitehead.py::"
T_GROUPS = "tests/test_groups.py::"

MUTANTS = [
    # --- one trivial group, one machine encoding
    ("trivial-group-encoded-as-finite", GROUPS,
     "        if e == ZERO:\n"
     "            return {\"kind\": \"zero\"}",
     "        if False:\n"
     "            return {\"kind\": \"zero\"}",
     [T_CLI + "test_hm_json_encodes_a_trivial_summand_as_zero",
      "tests/test_groups.py::test_machine_format_shape"]),
    # --- invariant factors: gcd and lcm, each printable
    ("invariant-carry-keeps-the-lcm", GROUPS,
     "            t = g\n",
     "            t = lcm\n",
     [T_GROUPS + "test_invariant_factors_examples",
      T_GROUPS + "test_invariant_factors_against_counting_oracle"]),
    ("invariant-digit-check-skipped", GROUPS,
     "            if limit and lcm.bit_length() > 3 * limit and lcm >= 10**limit:",
     "            if False:",
     [T_CLI + "test_table_line_past_the_digit_limit_exits_2",
      T_GROUPS + "test_invariant_factors_refuse_a_factor_past_the_digit_limit"]),
    # --- the realization verifiers compare two routes, never one with itself
    ("realization-levels-with-themselves", E,
     "        if got != want:\n"
     "            failures.append(\"level %d: projection %s != coordinates %s\"",
     "        if want != want:\n"
     "            failures.append(\"level %d: projection %s != coordinates %s\"",
     [T_ELEMENTS + "test_weight2_realization_fails_on_a_lossy_projection",
      T_ELEMENTS + "test_weight2_realization_fails_on_lossy_coordinates"]),
    ("additivity-sum-with-itself", E,
     "    added = map(add_coordinates, project_levels(e1, kmax),\n"
     "                project_levels(e2, kmax))",
     "    added = (e1 + e2).walk(kmax)",
     [T_ELEMENTS + "test_additivity_fails_on_a_lossy_projection_of_one_summand",
      T_ELEMENTS + "test_additivity_fails_on_a_lossy_projection_of_the_second_summand"]),
    ("file-checks-nothing", CLI,
     "    return _element_verdict(args, names, rep.failures)",
     "    return _element_verdict(args, names, ())",
     [T_CLI + "test_verify_edge_file", T_CLI + "test_verify_theta_file"]),
    ("random-skips-the-check", CLI,
     "        rep = verify_composition_additivity(e1, e2, args.levels)\n"
     "        if not rep.ok:",
     "        rep = verify_composition_additivity(e1, e2, args.levels)\n"
     "        if False:",
     [T_CLI + "test_verify_edge_random_catches_a_lossy_matrix_sum",
      T_CLI + "test_verify_edge_random_catches_a_lossy_projection",
      T_CLI + "test_verify_theta_random_catches_a_lossy_projection"]),
    # --- a PASS must have compared something
    ("one-level-accepted", CLI,
     "    if args.levels < 2:",
     "    if args.levels < 1:",
     [T_CLI + "test_verify_refuses_a_single_level"]),
    ("empty-word-pool-accepted", E,
     "    if not pool:\n",
     "    if False:\n",
     [T_CLI + "test_verify_theta_random_refuses_an_empty_word_pool"]),
    # --- the projection and the element's levels build no level alike
    ("walk-drops-a-letters-first-pair", E,
     "                level.update(add_coordinates(by_letter[k]))",
     "                level.update(add_coordinates(by_letter[k][1:]))",
     [T_CLI + "test_verify_edge_file", T_CLI + "test_verify_theta_file"]),
    ("projection-keeps-a-collapsed-letter", WH,
     "        kept = by_top.setdefault(max(word_letters(w)), {})",
     "        kept = by_top.setdefault(max(word_letters(w)) - 1, {})",
     [T_CLI + "test_verify_edge_file", T_CLI + "test_verify_theta_file"]),
    ("eps-reader-drops-a-diagonal", WH,
     "            (((i, j), c) for i, j, c in self.entries if j <= kmax),",
     "            (((i, j), c) for i, j, c in self.entries\n"
     "             if j <= kmax and j - i != 2),",
     [T_CLI + "test_verify_edge_file_keeps_the_second_diagonal"]),
    # --- element levels and coherence
    ("walk-yields-its-running-dict", E,
     "            yield dict(level)",
     "            yield level",
     [T_ELEMENTS + "test_level_returns_a_fresh_dict"]),
    ("coherence-level-with-itself", E,
     "                         if pushed.get(w) != actual.get(w))",
     "                         if actual.get(w) != actual.get(w))",
     [T_ELEMENTS + "test_coherence_negative_control"]),
    ("coherence-equal-skips-check", E,
     "        if pushed != actual:",
     "        if False:",
     [T_ELEMENTS + "test_coherence_negative_control",
      T_ELEMENTS + "test_coherence_asks_each_level_once"]),
    ("coherence-accepts-before-testing", E,
     "        pushed = apply_bonding(bonding(e.n, k, grading), upper, accepted)\n"
     "        accepted.update(upper)\n",
     "        accepted.update(upper)\n"
     "        pushed = apply_bonding(bonding(e.n, k, grading), upper, accepted)\n",
     [T_ELEMENTS + "test_coherence_tests_every_new_word_of_a_level"]),
    # --- the one accumulator behind sums, brackets, rewriting and levels
    ("eps-repeats-stop-adding-up", WH,
     "            c = acc.pop(key) + c",
     "            acc.pop(key)",
     [T_ELEMENTS + "test_sparse_epsilon_value_matches_scan",
      T_WH + "test_formal_sum_no_zero_coefficients",
      T_WH + "test_add_coordinates_matches_a_reference_sum"]),
    ("summed-keeps-zeros", WH,
     "        if c:\n"
     "            acc[key] = c",
     "        if True:\n"
     "            acc[key] = c",
     [T_WH + "test_formal_sum_no_zero_coefficients",
      T_WH + "test_add_coordinates_matches_a_reference_sum",
      T_WH + "test_add_coordinates_cancels_and_wraps_around"]),
    # --- reading bracket text
    ("tokenizer-skips-junk", WH,
     "    junk = _JUNK_RE.search(text)\n"
     "    if junk:",
     "    junk = None\n"
     "    if junk:",
     [T_WH + "test_text_reader_matches_the_token_by_token_oracle",
      T_WH + "test_parse_word_round_trip",
      T_WH + "test_parse_bracket_expr_errors"]),
    ("bracket-right-factor-unsummed", WH,
     "                ys = pairs if len(pairs) == 1 else _summed(pairs).items()",
     "                ys = pairs",
     [T_WH + "test_brackets_multiply_summed_factors"]),
    ("bracket-keeps-a-zero-factor", WH,
     "                        if cx and cy:",
     "                        if cx or cy:",
     [T_WH + "test_brackets_multiply_summed_factors"]),
    ("bracket-drops-coefficients", WH,
     "                            pairs.append((x.bracket(y), cx * cy))",
     "                            pairs.append((x.bracket(y), 1))",
     [T_WH + "test_brackets_multiply_summed_factors"]),
    ("word-reader-remembers-nothing-it-read", WH,
     "@functools.lru_cache(maxsize=WORD_CACHE_SIZE)\n"
     "def parse_word(text: str) -> HallWord:",
     "def parse_word(text: str) -> HallWord:",
     [T_WH + "test_parse_word_refuses_a_text_again"]),
    # --- the weight-2 matrix
    ("eps-band-excludes-its-width", WH,
     "             for i in range(max(1, j - w), j))))",
     "             for i in range(max(1, j - w + 1), j))))",
     [T_WH + "test_band_and_sum_epsilon",
      T_WH + "test_nonzero_matches_a_scan_of_entries_and_bands",
      T_ELEMENTS + "test_weight2_band_level"]),
    ("eps-value-band-excludes-its-width", WH,
     "                + sum(c for w, c in self.bands if j - i <= w))",
     "                + sum(c for w, c in self.bands if j - i < w))",
     [T_WH + "test_band_and_sum_epsilon"]),
    ("eps-sum-drops-other-bands", WH,
     "                             self.bands + other.bands)",
     "                             self.bands)",
     [T_WH + "test_band_and_sum_epsilon"]),
    # --- Hall generation and the bonding tower
    ("letters-reversed", HALL,
     "    return word_letters(w.left) + word_letters(w.right)",
     "    return word_letters(w.right) + word_letters(w.left)",
     ["tests/test_hall.py::test_cached_letters_are_the_letter_walk"]),
    ("hall-word-order-not-canonical", HALL,
     "    right: HallWord | None\n\n"
     "    @property\n",
     "    right: HallWord | None\n\n"
     "    def __lt__(self, other):\n"
     "        return ((self.length, self.left, self.right, self.max_letter)\n"
     "                < (other.length, other.left, other.right,\n"
     "                   other.max_letter))\n\n"
     "    def __le__(self, other):\n"
     "        return self == other or self < other\n\n"
     "    @property\n",
     ["tests/test_hall.py::test_generate_matches_brute_force",
      "tests/test_hall.py::test_word_order_is_the_oracle_order"]),
    ("height-shortcut-ignores-prefix", HALL,
     "    if not grading.prefix:\n"
     "        return grading.tail * w.length",
     "    if grading is not None:\n"
     "        return grading.tail * w.length",
     ["tests/test_hall.py::test_height_examples",
      "tests/test_hall.py::test_height_is_the_letter_walk"]),
    ("height-fold-drops-right-factor", HALL,
     "        values += map(node, map(get, left[lo:hi]), map(get, right[lo:hi]))",
     "        values += map(node, map(get, left[lo:hi]), map(get, left[lo:hi]))",
     ["tests/test_hall.py::test_listing_folds_match_the_per_word_routes"]),
    ("label-fold-swaps-factor-columns", HALL,
     "        values += map(node, map(get, left[lo:hi]), map(get, right[lo:hi]))",
     "        values += map(node, map(get, right[lo:hi]), map(get, left[lo:hi]))",
     ["tests/test_hall.py::test_columns_match_the_bracket_generator"]),
    ("census-class-cap-skipped", HALL,
     "    check_cap(classes, \"degree %d has %d height classes\", n, classes)\n",
     "",
     [T_CLI + "test_limit_formulas_refuse_more_blocks_than_the_cap[wedge]"]),
    ("census-table-sized-by-a-tail-past-n", HALL,
     "    size = max(0, n - grading.tail)",
     "    size = n - grading.tail",
     [T_CLI + "test_wedge_tail_past_a_machine_integer"]),
    ("census-witt-drops-grade-factor", HALL,
     "        b[s] = sum(r * c * a[s - r] for r, c in per_grade.items())",
     "        b[s] = sum(c * a[s - r] for r, c in per_grade.items())",
     ["tests/test_hall.py::test_census_matches_truncation_when_finite[named]"]),
    ("census-one-letter-counts-nothing", HALL,
     "        tally = dict.fromkeys(usable, 1)  # [a1, a1] is no Hall word",
     "        tally = {}",
     ["tests/test_hall.py::test_census_cost_follows_the_heights_reached"]),
    ("truncation-heights-unfiltered", HALL,
     "    return words.restrict(keep), tuple(itertools.compress(hs, keep))",
     "    return words.restrict(keep), tuple(hs)",
     ["tests/test_hall.py::test_listing_folds_match_the_per_word_routes",
      "tests/test_hilton.py::test_decompose_wedge_groups_follow_each_word_height"]),
    ("wedge-group-memo-keyed-by-weight", HILTON,
     "    groups = tuple((h, sphere_group_expr(n, h + 1, table))\n"
     "                   for h in sorted(set(hs)))",
     "    groups = tuple((j, sphere_group_expr(n, h + 1, table))\n"
     "                   for j, h in sorted(set(zip(listing.weights(), hs))))",
     ["tests/test_hilton.py::test_decompose_wedge_groups_follow_each_word_height"]),
    ("generate-drops-prefix-times-suffix", HALL,
     "                runs = [(x, ys[c], ys[c + 1]) for x in range(xs[0], xs[c])]",
     "                runs = []",
     ["tests/test_hall.py::test_stratum_sizes_are_necklace_counts"]),
    ("generate-same-weight-without-rank-compare", HALL,
     "                        runs.append((x, x + 1, ys[c + 1]))",
     "                        runs.append((x, ys[c], ys[c + 1]))",
     ["tests/test_hall.py::test_columns_match_the_bracket_generator"]),
    ("bonding-skips-is-hall", HILTON,
     "        if not (is_hall(w, b.k + 1) and height(w, b.grading) + 1 <= b.n):",
     "        if not (height(w, b.grading) + 1 <= b.n):",
     ["tests/test_hilton.py::test_apply_bonding_rejects_unknown_words",
      "tests/test_hilton.py::test_bonding_membership_matches_enumeration"]),
    ("bonding-height-bound-strict", HILTON,
     "        if not (is_hall(w, b.k + 1) and height(w, b.grading) + 1 <= b.n):",
     "        if not (is_hall(w, b.k + 1) and height(w, b.grading) + 1 < b.n):",
     ["tests/test_hilton.py::test_apply_bonding_examples",
      "tests/test_hilton.py::test_bonding_membership_matches_enumeration"]),
    ("cli-loads-whitehead-at-import", CLI,
     "from .spheres import load_table\n",
     "from .spheres import load_table\nfrom .whitehead import project_levels\n",
     ["tests/test_process.py::test_formula_commands_load_no_element_code"]),
    ("element-file-read-maps-only-oserror", CLI,
     "    except (OSError, UnicodeDecodeError) as exc:\n"
     "        raise CommandError(\"cannot read %s: %s\" % (path, exc)) from None",
     "    except OSError as exc:\n"
     "        raise CommandError(\"cannot read %s: %s\" % (path, exc)) from None",
     [T_CLI + "test_usage_errors"]),
    ("main-lets-stratum-size-error-escape", CLI,
     "    except (CommandError, StratumSizeError) as exc:",
     "    except CommandError as exc:",
     [T_CLI + "test_usage_errors"]),
    # --- the limit formulas, replayed over the whole golden corpus
    ("wedge-trivial-bound-off-by-one", CLI,
     "_formula_line(expr, args.n <= grading.r(1))",
     "_formula_line(expr, args.n < grading.r(1))",
     ["tests/test_golden.py::test_formula_slot_matches_golden[earring=wedge-%d]"
      % i for i in (5, 6, 7)]),
    # --- bracket rewriting signs
    ("jacobi-first-sign-flipped", WH,
     "    jacobi = ((x.bracket(u).bracket(v), _sign(p + 1)),",
     "    jacobi = ((x.bracket(u).bracket(v), -_sign(p + 1)),",
     ["tests/test_acceptance.py::test_criterion_8_rewriting_soundness"]),
    ("jacobi-second-sign-flipped", WH,
     "              (u.bracket(x.bracket(v)), _sign((p + 1) * (q + 1))))",
     "              (u.bracket(x.bracket(v)), -_sign((p + 1) * (q + 1))))",
     ["tests/test_acceptance.py::test_criterion_8_rewriting_soundness"]),
    ("swap-sign-dropped", WH,
     "        return tuple((t, sign * c) for t, c in _reduce_root(y, x))",
     "        return tuple((t, c) for t, c in _reduce_root(y, x))",
     ["tests/test_acceptance.py::test_criterion_8_rewriting_soundness"]),
    # --- the shared record constructor
    ("record-fields-out-of-order", RECORDS,
     "        for set_field, v in zip(setters, values):",
     "        for set_field, v in zip(setters, values[::-1]):",
     ["tests/test_records.py::test_equal_fields_equal_records"]),
]

COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml")


def occurrences() -> list[tuple[str, int]]:
    """(name, number of times its old text occurs in its file)."""
    return [(name, (ROOT / path).read_text(encoding="utf-8").count(old))
            for name, path, old, _new, _tests in MUTANTS]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench",
                                    ".pytest_cache", ".hypothesis")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _pytest(cwd: Path, tests) -> int:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # import the copy, nothing else
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *tests]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run() -> bool:
    with tempfile.TemporaryDirectory(prefix="cechwedge-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        tests = sorted({t for *_, ts in MUTANTS for t in ts})
        if _pytest(clean, tests) != 0:
            print("the named tests fail on the unmutated copy; nothing to "
                  "compare against", file=sys.stderr)
            return False
        ok = True
        for name, path, old, new, tests in MUTANTS:
            work = Path(tmp) / name
            shutil.copytree(clean, work)
            target = work / path
            target.write_text(target.read_text(encoding="utf-8")
                              .replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            rc = _pytest(work, tests)
            verdict = "killed" if rc == 1 else "SURVIVED (pytest exit %d)" % rc
            print("%-44s %s  %.1f s" % (name, verdict,
                                        time.perf_counter() - start))
            ok = ok and rc == 1
            shutil.rmtree(work)
        return ok


def main() -> int:
    stale = [(n, c) for n, c in occurrences() if c != 1]
    for name, count in stale:
        print("%s: old text occurs %d times, need exactly 1" % (name, count),
              file=sys.stderr)
    if stale:
        return 1
    ok = run()
    print("all %d mutants killed" % len(MUTANTS) if ok else "mutation check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
