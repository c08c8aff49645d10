import importlib.util
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oligoforge import cli, codegen
from oligoforge.codegen import (
    PRIMITIVE_POLYNOMIALS,
    SimplexCodeError,
    build_dna_code,
    code_metadata,
    code_properties,
    default_generator,
    is_simplex_length,
    load_dna_code,
    simplex_code,
    verify_code,
)
from oligoforge.folding import EnergyParams, min_free_energy
from oligoforge.seqcore import (
    DnaSequence,
    binary_image,
    gc_content,
    mu,
    packed_image,
    read_sequence_file,
    sequence_from_even_odd,
)

import oracles
from fixtures import (
    ALL_GA_LISTED,
    EXAMPLE_GENERATOR,
    EXAMPLE_WORDS_CONSTRUCTIBLE,
    MU1_ONE_WORDS,
    MU1_TWO_WORDS,
)


class TestSimplexCode:
    def test_reference_generator(self):
        code = simplex_code(3, EXAMPLE_GENERATOR)
        assert code.n == 7
        assert len(code.codewords) == 7
        assert all(w.count("1") == 4 for w in code.codewords)
        assert code.generator == EXAMPLE_GENERATOR

    def test_pairwise_intersection(self):
        code = simplex_code(3, EXAMPLE_GENERATOR)
        for a, b in itertools.combinations(code.codewords, 2):
            shared = sum(x == y == "1" for x, y in zip(a, b))
            assert shared == 2

    @pytest.mark.parametrize("m,generators", [(3, 14), (4, 30)])
    def test_every_accepted_generator_intersects_in_a_quarter(self, m, generators):
        # simplex_code checks weight and XOR closure; the pairwise
        # intersections of 2^(m-2) follow, over every candidate
        n, quarter = 2**m - 1, 2 ** (m - 2)
        accepted = 0
        for ones in itertools.combinations(range(n), 2 * quarter):
            try:
                code = simplex_code(m, "".join("1" if k in ones else "0" for k in range(n)))
            except SimplexCodeError:
                continue
            accepted += 1
            ints = [int(w, 2) for w in code.codewords]
            for a, b in itertools.combinations(ints, 2):
                assert (a & b).bit_count() == quarter
        # the rotations of the m-sequences of the two primitive polynomials
        assert accepted == generators

    def test_smallest_dimension(self):
        code = simplex_code(2, "110")
        assert set(code.codewords) == {"110", "011", "101"}
        assert all(w.count("1") == 2 for w in code.codewords)

    def test_xor_closure(self):
        code = simplex_code(3)
        values = {int(w, 2) for w in code.codewords} | {0}
        for a in values:
            for b in values:
                assert a ^ b in values

    def test_rejects_constant_word(self):
        with pytest.raises(SimplexCodeError, match="weight 7"):
            simplex_code(3, "1111111")

    def test_rejects_wrong_weight(self):
        with pytest.raises(SimplexCodeError, match="weight"):
            simplex_code(3, "1110000")

    def test_rejects_non_simplex_constant_weight_word(self):
        # weight 4 and distinct shifts, but not closed under XOR
        with pytest.raises(SimplexCodeError):
            simplex_code(3, "1010101")

    def test_rejects_wrong_length(self):
        with pytest.raises(SimplexCodeError, match="length"):
            simplex_code(3, "11101000")

    def test_rejects_bad_characters(self):
        with pytest.raises(SimplexCodeError, match="bit string"):
            simplex_code(3, "111010x")

    def test_rejects_dimension_below_two(self):
        with pytest.raises(SimplexCodeError):
            simplex_code(1)

    def test_default_generators_all_verify(self):
        for m in PRIMITIVE_POLYNOMIALS:
            code = simplex_code(m)
            assert code.n == 2**m - 1
            assert code.generator == default_generator(m)

    def test_default_generator_m3_matches_reference(self):
        assert default_generator(3) == EXAMPLE_GENERATOR

    def test_no_default_for_large_dimension(self):
        with pytest.raises(SimplexCodeError, match="no default generator"):
            default_generator(9)


def half_weight_words(m):
    """Every word of length 2^m - 1 and weight 2^(m-1)."""
    n = 2**m - 1
    for ones in itertools.combinations(range(n), 2 ** (m - 1)):
        yield "".join("1" if k in ones else "0" for k in range(n))


def accepts(m, generator):
    try:
        simplex_code(m, generator)
    except SimplexCodeError:
        return False
    return True


def accepted_generators(m):
    return [g for g in half_weight_words(m) if accepts(m, g)]


class TestSimplexChecks:
    """simplex_code checks closure on the generator's n shifts, where the
    definition (oracles.is_simplex_generator) XORs all n^2 pairs."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_agrees_with_the_quadratic_check_on_every_half_weight_word(self, m):
        accepted = accepted_generators(m)
        assert accepted == [g for g in half_weight_words(m) if oracles.is_simplex_generator(m, g)]
        assert len(accepted) == {2: 3, 3: 14, 4: 30}[m]

    @pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYNOMIALS))
    def test_every_rotation_of_a_default_generator_and_its_reversal_is_accepted(self, m):
        for g in (default_generator(m), default_generator(m)[::-1]):
            # a rotation has the same shifts, so the same quadratic verdict
            assert oracles.is_simplex_generator(m, g)
            assert all(accepts(m, g[k:] + g[:k]) for k in range(len(g)))

    @pytest.mark.parametrize("m", [5, 6])
    def test_agrees_with_the_quadratic_check_on_seeded_words(self, m):
        # half-weight words at random, and rotations of the default generator
        # with a one and a zero swapped
        rng = random.Random(m)
        n, g = 2**m - 1, default_generator(m)
        words = []
        for _ in range(1500):
            ones = set(rng.sample(range(n), 2 ** (m - 1)))
            words.append("".join("1" if k in ones else "0" for k in range(n)))
            k = rng.randrange(n)
            bits = list(g[k:] + g[:k])
            i, j = rng.choice([p for p in range(n) if bits[p] == "1"]), rng.choice([p for p in range(n) if bits[p] == "0"])
            bits[i], bits[j] = "0", "1"
            words.append("".join(bits))
        words += [g[k:] + g[:k] for k in range(n)]
        assert [accepts(m, w) for w in words] == [oracles.is_simplex_generator(m, w) for w in words]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_no_half_weight_word_has_a_repeated_rotation(self, m):
        # so once the weight holds, the n shifts are distinct without a check
        n = 2**m - 1
        for g in half_weight_words(m):
            assert len({g[k:] + g[:k] for k in range(n)}) == n, g

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_generator_length_must_be_two_to_the_m_less_one(self, m):
        g = default_generator(m)
        for length in (2**m - 2, 2**m):
            with pytest.raises(SimplexCodeError, match=rf"^generator length {length} != 2\^{m} - 1$"):
                simplex_code(m, (g * 2)[:length])
        assert simplex_code(m, g).n == 2**m - 1

    @pytest.mark.parametrize("m,generator", [(1, "1"), (0, "")])
    def test_dimension_below_two_is_refused_though_the_length_fits(self, m, generator):
        assert is_simplex_length(len(generator), m)
        with pytest.raises(SimplexCodeError, match="dimension must be >= 2"):
            simplex_code(m, generator)

    def test_length_rule(self):
        for m in range(1, 80):
            n = 2**m - 1
            assert is_simplex_length(n, m)
            assert not any(is_simplex_length(length, m) for length in (n - 1, n + 1, n + 2, 2 * n))
            assert not is_simplex_length(n, m + 1) and not is_simplex_length(n, m - 1)
        # read from the length's bits: a huge m costs nothing
        assert not is_simplex_length(7, 10**12)


class TestBuildDnaCode:
    def test_reference_code_size(self):
        code = build_dna_code(simplex_code(3, EXAMPLE_GENERATOR))
        assert len(code.codewords) == 49
        assert len(set(code.codewords)) == 49
        assert code.properties.length == 7

    def test_listed_words_present(self):
        code = build_dna_code(simplex_code(3, EXAMPLE_GENERATOR))
        words = {w.text for w in code.codewords}
        for listed in EXAMPLE_WORDS_CONSTRUCTIBLE:
            assert listed in words

    def test_even_odd_pair_decodes_to_listed_word(self):
        code = build_dna_code(simplex_code(3, EXAMPLE_GENERATOR))
        by_components = {
            (binary_image(w).even, binary_image(w).odd): w.text for w in code.codewords
        }
        assert by_components[("0111010", "1110100")] == "TGGCTCA"
        assert by_components[(EXAMPLE_GENERATOR, EXAMPLE_GENERATOR)] == "GGGAGAA"

    def test_equal_components_give_ga_words(self):
        code = build_dna_code(simplex_code(3, EXAMPLE_GENERATOR))
        ga_words = {w.text for w in code.codewords if set(w.text) <= {"G", "A"}}
        assert set(ALL_GA_LISTED) <= ga_words
        assert len(ga_words) == 7

    def test_round_trip_components(self):
        code = build_dna_code(simplex_code(3, EXAMPLE_GENERATOR))
        shifts = set(simplex_code(3, EXAMPLE_GENERATOR).codewords)
        for w in code.codewords:
            img = binary_image(w)
            assert img.even in shifts
            assert img.odd in shifts

    def test_m2_code(self):
        code = build_dna_code(simplex_code(2, "110"))
        assert len(code.codewords) == 9
        assert code.properties.length == 3

    def test_deterministic_order(self):
        first = build_dna_code(simplex_code(3))
        second = build_dna_code(simplex_code(3))
        assert [w.text for w in first.codewords] == [w.text for w in second.codewords]

    @pytest.mark.parametrize(
        "m,generator",
        [(m, None) for m in range(2, 8)]
        + [(3, "1001011"), (5, default_generator(5)[7:] + default_generator(5)[:7])],
    )
    def test_words_slice_in_the_order_of_decoding_every_pair(self, m, generator):
        simplex = simplex_code(m, generator)
        shifts = simplex.codewords
        decoded = [sequence_from_even_odd(e, o) for e in shifts for o in shifts]
        assert list(build_dna_code(simplex).codewords) == decoded


class TestCodeProperties:
    def test_reference_code_metadata(self):
        code = build_dna_code(simplex_code(3, EXAMPLE_GENERATOR))
        props = code.properties
        assert props.size == 49
        assert props.min_hamming_distance == 4
        assert props.gc_content == 4
        assert props.max_shift_match == 2

    def test_min_distance_matches_naive(self):
        for m, gen in ((2, "110"), (3, EXAMPLE_GENERATOR)):
            code = build_dna_code(simplex_code(m, gen))
            assert code.properties.min_hamming_distance == oracles.naive_min_distance(
                code.codewords
            )

    def test_gc_equals_even_weight(self):
        code = build_dna_code(simplex_code(3))
        for w in code.codewords:
            assert gc_content(w) == 4

    def test_metadata_equals_recomputation(self):
        code = build_dna_code(simplex_code(3))
        assert code_properties(code.codewords) == code.properties

    def test_non_constant_gc_reported(self):
        props = code_properties(["ACGT", "AAAA"])
        assert props.gc_content is None
        assert props.gc_values == (0, 2)

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            code_properties(["ACG", "ACGT"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            code_properties([])

    def test_shift_bound_small_dimensions(self):
        for m in (2, 3, 4):
            code = build_dna_code(simplex_code(m))
            bound = 2 ** (m - 2)
            for w in code.codewords:
                for i in range(1, code.properties.length):
                    assert mu(w, i) <= bound


def rotate(word, k):
    return word[k:] + word[:k]


def brute_rotation_step(words):
    n = len(words[0])
    return min(
        d
        for d in range(1, n + 1)
        if n % d == 0 and sorted(rotate(w, d) for w in words) == sorted(words)
    )


@st.composite
def rotation_sets(draw):
    """Words closed under rotation by a divisor of n, in whole or in part."""
    n = draw(st.sampled_from([4, 6, 8, 9, 10, 12]))
    step = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    bases = draw(st.lists(st.text(alphabet="ACGT", min_size=n, max_size=n), min_size=1, max_size=4))
    words = [rotate(w, k) for w in bases for k in range(0, n, step)]
    dropped = draw(st.sets(st.integers(min_value=0, max_value=len(words) - 1)))
    words = [w for idx, w in enumerate(words) if idx not in dropped]
    words += draw(st.lists(st.sampled_from(words), max_size=2)) if words else []
    words = draw(st.permutations(words))
    if len(words) < 2:
        words = words + [draw(st.text(alphabet="ACGT", min_size=n, max_size=n))] * (2 - len(words))
    return words


class TestRotationGroup:
    @settings(deadline=None, max_examples=300)
    @given(words=rotation_sets())
    def test_orbit_distance_matches_pairwise_loop(self, words):
        props = code_properties(words)
        assert props.rotation_step == brute_rotation_step(words)
        assert props.min_hamming_distance == oracles.naive_min_distance(words)

    @settings(deadline=None, max_examples=300)
    @given(words=rotation_sets())
    def test_pruned_max_mu_matches_every_word_and_shift(self, words):
        n = len(words[0])
        expected = max(oracles.direct_mu(w, i) for w in words for i in range(1, n))
        assert code_properties(words).max_shift_match == expected

    def test_max_mu_reached_only_off_the_representatives(self):
        # the orbit of AAAATT: mu maxima 2, 3, 4, 3, 2, 2 by rotation, so the
        # code's 4 lies at rotation 2 alone, above the representative's 2
        words = [rotate("AAAATT", k) for k in range(6)]
        props = code_properties(words)
        assert props.representatives == ("AAAATT",)
        assert max(oracles.direct_mu("AAAATT", i) for i in range(1, 6)) == 2
        assert props.max_shift_match == 4

    def test_proper_subgroup(self):
        # n = 9, closed under rotation by 3 but not by 1
        words = [rotate(w, k) for w in ("AACGTTGCA", "GGATCCTAG") for k in (0, 3, 6)]
        props = code_properties(words)
        assert props.rotation_step == 3
        assert props.min_hamming_distance == oracles.naive_min_distance(words)

    def test_repeated_word_that_is_not_a_representative(self):
        # the orbit's first word is unique; a later rotation appears twice
        word = "AACGTTGC"
        words = [rotate(word, k) for k in range(8)] + [rotate(word, 3)]
        props = code_properties(words)
        assert props.rotation_step == 8
        assert props.min_hamming_distance == 0

    def test_repeated_orbit(self):
        word = "AACGTTGC"
        words = [rotate(word, k) for k in range(8)] * 2
        props = code_properties(words)
        assert props.rotation_step == 1
        assert props.min_hamming_distance == 0

    @settings(deadline=None, max_examples=200)
    @given(words=rotation_sets())
    def test_representatives_and_orbit_folding_on_any_multiset(self, words):
        # the orbits of a partly closed set with repeated words: each distinct
        # word lies in exactly one representative's orbit, and the orbit
        # fills give every word's own energy, keyed in codeword order
        props = code_properties(words)
        step, distinct = props.rotation_step, list(dict.fromkeys(words))
        orbits = [{rotate(r, k) for k in range(0, props.length, step)} for r in props.representatives]
        assert sum(map(len, orbits)) == len(distinct)
        assert set().union(*orbits) == set(distinct)
        assert [r for r in distinct if r in props.representatives] == list(props.representatives)
        report = verify_code(load_dna_code(words))
        assert list(report.energies.items()) == [(w, min_free_energy(w)) for w in distinct]

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_simplex_codes_are_closed_under_every_rotation(self, m):
        assert build_dna_code(simplex_code(m)).properties.rotation_step == 1

    def test_generic_code_has_the_trivial_group(self):
        props = code_properties(["ACGTAC", "TGCATT", "GGACTA"])
        assert props.rotation_step == 6
        assert props.min_hamming_distance == oracles.naive_min_distance(
            ["ACGTAC", "TGCATT", "GGACTA"]
        )

    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("at,gc", [(-1, -2), (-3, 0)])
    def test_orbit_folding_matches_per_word_folding(self, m, at, gc):
        code = build_dna_code(simplex_code(m))
        params = EnergyParams(at, gc)
        report = verify_code(code, params, -2)
        energies = {w.text: min_free_energy(w, params) for w in code.codewords}
        assert list(report.energies.items()) == list(energies.items())
        assert report.folded == tuple(w for w, e in energies.items() if e <= -2)
        metadata = code_metadata(code, report)
        assert list(metadata["energies"].items()) == list(energies.items())


def routes(words):
    """(m or None from the route choice, properties, the pair loops' distance and max mu)."""
    props = code_properties(words)
    images = [packed_image(t) for t in props.representatives]
    loops = codegen._pair_loops(
        [DnaSequence(w) for w in words], props.length, props.rotation_step, props.representatives, images
    )
    return None if props.simplex is None else props.simplex.m, props, loops


def perturb(data, words, change):
    """The words with one drawn word replaced, duplicated or removed (or none
    for a shuffle), then shuffled."""
    words, n = list(words), len(words[0])
    k = data.draw(st.integers(0, len(words) - 1))
    if change == "replace":
        words[k] = data.draw(st.text("ACGT", min_size=n, max_size=n))
    elif change == "duplicate":
        words.insert(data.draw(st.integers(0, len(words))), words[k])
    elif change == "remove":
        del words[k]
    return data.draw(st.permutations(words))


CHANGES = st.sampled_from(["replace", "duplicate", "remove", "shuffle"])


def route_generators():
    """Every accepted generator at m = 2..4; at m = 5..7 the default, its
    reversal and two of its rotations."""
    for m in (2, 3, 4):
        yield from (pytest.param(m, g, id=f"m{m}-{k}") for k, g in enumerate(accepted_generators(m)))
    for m in (5, 6, 7):
        g = default_generator(m)
        named = {"default": g, "reversed": g[::-1], "rotated-1": rotate(g, 1), "rotated-half": rotate(g, len(g) // 2)}
        yield from (pytest.param(m, h, id=f"m{m}-{name}") for name, h in named.items())


class TestClosedForm:
    """The simplex code's distance and max mu from its construction, against
    the pair loops that every other code takes."""

    @pytest.mark.parametrize("m,generator", list(route_generators()))
    def test_agrees_with_the_pair_loops(self, m, generator):
        m_found, props, loops = routes(build_dna_code(simplex_code(m, generator)).codewords)
        assert m_found == m
        assert (props.min_hamming_distance, props.max_shift_match) == loops == (2 ** (m - 1), 2 ** (m - 2))
        assert props.gc_content == 2 ** (m - 1) and props.rotation_step == 1

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), m=st.sampled_from([2, 3, 4]), change=CHANGES)
    def test_perturbed_codes_take_the_pair_loops(self, data, m, change):
        code = [w.text for w in build_dna_code(simplex_code(m)).codewords]
        words, n = perturb(data, code, change), len(code[0])
        m_found, props, loops = routes(words)
        # a shuffle, or a word replaced by itself, keeps the code
        assert m_found == (m if sorted(words) == sorted(code) else None)
        assert (props.min_hamming_distance, props.max_shift_match) == loops
        assert props.min_hamming_distance == oracles.naive_min_distance(words)
        assert props.max_shift_match == max(
            oracles.direct_mu(w, i) for w in words for i in range(1, n)
        )
        assert props.gc_values == tuple(sorted({gc_content(w) for w in words}))
        assert props.rotation_step == brute_rotation_step(words)

    def test_commands_reach_the_loops_only_for_a_changed_code(self, tmp_path, monkeypatch, capsys):
        class LoopsReached(Exception):
            pass

        def refuse(*args):
            raise LoopsReached

        monkeypatch.setattr(codegen, "_pair_loops", refuse)
        out = tmp_path / "code.txt"
        assert cli.main(["construct", "-m", "5", "--output", str(out)]) == 0
        assert cli.main(["verify", "--input", str(out)]) == 0
        assert "verdict: PASS" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        lines[0] = lines[0][::-1]  # one word edited
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(LoopsReached):
            cli.main(["verify", "--input", str(out)])


class TestShiftMatchValues:
    def test_mu1_values_of_named_words(self):
        for word in MU1_ONE_WORDS:
            assert mu(word, 1) == 1, word
        for word in MU1_TWO_WORDS:
            assert mu(word, 1) == 2, word

    def test_ga_words_have_zero_profile(self):
        for word in ALL_GA_LISTED:
            for i in range(len(word)):
                assert mu(word, i) == 0


class TestVerifyCode:
    def test_reference_code_passes(self):
        code = build_dna_code(simplex_code(3, EXAMPLE_GENERATOR))
        report = verify_code(code)
        assert report.passed
        assert report.properties.min_hamming_distance == 4
        assert report.properties.gc_constant
        assert report.properties.max_shift_match == 2
        assert report.mu_bound == 2
        assert len(report.energies) == 49
        assert all(e <= 0 for e in report.energies.values())

    def test_report_renders(self):
        code = build_dna_code(simplex_code(2))
        text = verify_code(code).render_text()
        assert "codewords: 9" in text
        assert "verdict: PASS" in text

    def test_loaded_code_without_dimension(self):
        code = load_dna_code(["ACGT", "TGCA"])
        report = verify_code(code)
        assert report.mu_bound is None
        assert report.mu_bound_met

    def test_non_constant_gc_fails(self):
        code = load_dna_code(["ACGT", "AAAA"])
        report = verify_code(code)
        assert not report.properties.gc_constant
        assert not report.passed
        assert "NOT CONSTANT" in report.render_text()

    def test_violated_bound_fails(self):
        # claim dimension 2 (bound 1) for words with larger shift matches
        code = load_dna_code(["GCG", "CGC"], m=2)
        report = verify_code(code)
        assert not report.mu_bound_met
        assert not report.passed

    def test_dimension_that_does_not_fit(self):
        # the m=3 code claimed at m=5: no bound 8 and no GC target 16, one m line
        code = load_dna_code(build_dna_code(simplex_code(3)).codewords, m=5)
        report = verify_code(code)
        assert report.mu_bound is None
        assert report.failures == ("m: 5 needs words of length 2^m - 1, got length 7",)
        assert not code.fits

    @pytest.mark.parametrize("m", [1, 0])
    def test_dimension_below_two_rejected(self, m):
        with pytest.raises(ValueError, match="dimension must be >= 2"):
            load_dna_code(["GCG", "CGC"], m=m)

    def test_m4_scaling(self):
        code = build_dna_code(simplex_code(4))
        report = verify_code(code)
        assert report.properties.size == 225
        assert report.properties.max_shift_match <= 4
        assert report.mu_bound_met


def holds(words, generator):
    """Whether code_properties finds the words to be generator's DNA code."""
    simplex = code_properties(words).simplex
    return simplex is not None and generator in simplex.codewords


def holds_by_definition(words, generator):
    """The multiset definition: every word of generator's DNA code, each as
    often as there, and no other word."""
    m = len(generator).bit_length()
    if not accepts(m, generator):
        return False
    return Counter(words) == Counter(build_dna_code(simplex_code(m, generator)).codewords)


class TestHoldsSimplexCode:
    """Whether words hold generator g's DNA code, read from
    CodeProperties.simplex: exactly when props.simplex holds g."""

    def words(self, generator):
        return [w.text for w in build_dna_code(simplex_code(3, generator)).codewords]

    @pytest.mark.parametrize("change,expected", [
        (lambda words: words, True),
        (lambda words: words[::-1], True),  # order does not matter
        (lambda words: words[:-1] + words[:1], False),  # one word twice, one missing
        (lambda words: words + words[:1], False),
        (lambda words: words * 2, False),
        (lambda words: words[:-1], False),
    ])
    def test_multiset_of_the_generator_code(self, change, expected):
        assert holds(change(self.words(EXAMPLE_GENERATOR)), EXAMPLE_GENERATOR) is expected

    def test_other_generator_and_rotated_generator(self):
        words = self.words(EXAMPLE_GENERATOR)
        assert not holds(words, "1001011")
        # a rotated generator has the same shifts, hence the same code
        assert holds(words, rotate(EXAMPLE_GENERATOR, 2))
        assert not holds(self.words("1001011"), simplex_code(3).generator)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_every_generator_against_the_definition(self, m):
        accepted = accepted_generators(m)
        # the accepted generators hold every rotation and reversal of each
        assert {h for g in accepted for h in (rotate(g, 1), g[::-1])} == set(accepted)
        for g in accepted:
            words = [w.text for w in build_dna_code(simplex_code(m, g)).codewords]
            for h in accepted + ["1" * len(g), g[:-1]]:
                assert holds(words, h) == holds_by_definition(words, h), (g, h)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), m=st.sampled_from([2, 3, 4]), change=CHANGES)
    def test_perturbed_codes_against_the_definition(self, data, m, change):
        accepted = accepted_generators(m)
        g, h = data.draw(st.sampled_from(accepted)), data.draw(st.sampled_from(accepted))
        words = perturb(data, [w.text for w in build_dna_code(simplex_code(m, g)).codewords], change)
        for candidate in (g, h, rotate(g, 1), g[::-1]):
            assert holds(words, candidate) == holds_by_definition(words, candidate), candidate


class TestDnaCodeType:
    def test_mu_bound_property(self):
        assert build_dna_code(simplex_code(3)).mu_bound == 2
        assert load_dna_code(["ACGT"]).mu_bound is None

    def test_an_m_fits_the_words_of_length_two_to_the_m_less_one(self):
        assert load_dna_code(["ACGT"]).fits
        for m, fits, bound in [(2, True, 1), (3, False, None), (10**12, False, None)]:
            code = load_dna_code(["GCG"], m=m)
            assert (code.fits, code.mu_bound) == (fits, bound)

    def test_codewords_are_sequences(self):
        code = build_dna_code(simplex_code(2))
        assert all(isinstance(w, DnaSequence) for w in code.codewords)

    def test_words_of_files_codes_and_reports_are_sequences(self, tmp_path):
        built = build_dna_code(simplex_code(3))
        path = tmp_path / "code.txt"
        path.write_text("".join(w.lower() + "\n" for w in built.codewords))
        read = read_sequence_file(str(path))
        assert read == list(built.codewords)
        assert all(type(w) is DnaSequence for w in read)
        for code in (built, load_dna_code(read)):
            assert all(type(w) is DnaSequence for w in code.codewords)
            report = verify_code(code)
            assert all(type(w) is DnaSequence for w in report.energies)
            assert all(type(w) is DnaSequence for w in report.folded)


def _load_tracing():
    """perfbench/tracing.py, loaded by path: perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_binders_keep_every_wrapped_name():
    # the trace mode swaps each WRAPPED function under every binder module's
    # name; a binding dropped as unused would break it at run time
    import oligoforge

    for name, binders, _ in _load_tracing().WRAPPED:
        home, attr = name.split(".")
        fn = getattr(getattr(oligoforge, home), attr)
        for binder in binders:
            assert getattr(getattr(oligoforge, binder), attr) is fn, (name, binder)
