"""tools/ladder.py times the library's own calls, and its smallest
points run fast enough for Tier-1."""

import time

import ladder
from cechwedge.elements import (CoherentElement, check_coherence,
                                parse_element_file, project_levels,
                                verify_composition_additivity,
                                verify_weight2_realization)
from cechwedge.groups import invariant_factors
from cechwedge.hall import generate, height_class_census, heights, labels
from cechwedge.hilton import cech_decompose, decompose_wedge, earring_formula
from cechwedge.whitehead import (hall_normalize, parse_bracket_expr,
                                 tensor_expansion)

LIBRARY = {f.__name__: f for f in (
    generate, parse_bracket_expr, hall_normalize, tensor_expansion,
    parse_element_file, check_coherence, CoherentElement.walk, project_levels,
    verify_weight2_realization, verify_composition_additivity,
    earring_formula, cech_decompose, height_class_census, invariant_factors,
    decompose_wedge)}
# layers whose call is a walk, which the ladder runs to its end
WALKS = ("walk", "project_levels")
# layers whose call is a pass of the session client
SESSIONS = ("session_replay", "session_fresh")


def test_smallest_point_of_every_layer():
    start = time.perf_counter()
    lib = ladder.library()
    points = ladder.steps(lib)
    assert tuple(points) == ladder.LAYERS
    assert set(LIBRARY) | set(SESSIONS) | {"additivity_runs"} == set(points)
    for layer, pts in points.items():
        sizes = [size for size, _, _ in pts]
        assert sizes == sorted(set(sizes)) and len(sizes) >= 3, layer
        size, fn, args = pts[0]
        if layer == "generate":
            # one call lists the words with their heights and labels
            k, max_weight, grading = args
            listing = generate(k, max_weight)
            want = (listing, heights(listing, grading), labels(listing))
            assert size == len(listing)
        elif layer in WALKS:
            assert fn.__wrapped__ is LIBRARY[layer], layer
            want = list(LIBRARY[layer](*args))
        elif layer in SESSIONS:
            # a pass answers each query of its stream, or raises
            want = size
            streams = [args() if callable(args) else args for _ in range(2)]
            assert [len(s) for s, in streams] == [size, size]
            # replay repeats stream seed 1, fresh draws a new seed per pass
            assert (streams[0] == streams[1]) == (layer == "session_replay")
        elif layer == "additivity_runs":
            # one call checks every pair of seeded draws at 8 levels
            assert fn.__wrapped__ is verify_composition_additivity
            pairs, kmax = args
            assert len(pairs) == size and kmax == 8
            want = size  # each pair passes
        elif layer == "decompose_wedge":
            # the tower query: how many summands the wedge splits into
            assert fn.__wrapped__ is LIBRARY[layer]
            want = len(decompose_wedge(*args).summands)
            # weights 1 to 3 on two letters: 2 + 1 + 2 Hall words
            assert args[1] == 2 and want == 5
        else:
            assert fn is LIBRARY[layer], layer
            want = LIBRARY[layer](*args)
        cold, best, result = ladder.measure(lib, fn, args, 2)
        assert 0 < best <= cold
        assert result == want, layer
    assert time.perf_counter() - start < 2


def test_measure_clears_every_cache_first():
    lib = ladder.library()
    hall = lib["hall"]
    hall.word_letters(hall.bracket(hall.letter(1), hall.letter(2)))
    ladder.measure(lib, hall.letter, (3,), 1)
    assert hall.word_letters.cache_info().currsize == 0
    assert hall.letter.cache_info().currsize == 1
