import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oligoforge import seqcore
from oligoforge.seqcore import (
    BinaryImage,
    DnaSequence,
    SequenceParseError,
    binary_image,
    complement,
    complement_sequence,
    decode_binary_image,
    gc_content,
    hamming_distance,
    mu,
    packed_image,
    packed_mu,
    read_sequence_file,
    sequence_from_even_odd,
    shift_profile,
    wc_distance,
    wc_distance_via_binary,
    write_sequence_file,
)

import oracles


def random_word(rng, n):
    return "".join(rng.choice("ACGT") for _ in range(n))


def all_words(n):
    for letters in itertools.product("ACGT", repeat=n):
        yield "".join(letters)


class TestComplement:
    def test_known_values(self):
        assert complement("A") == "T"
        assert complement("G") == "C"
        assert complement("C") == "G"
        assert complement("T") == "A"

    def test_involution_without_fixed_point(self):
        for b in "ACGT":
            assert complement(complement(b)) == b
            assert complement(b) != b

    def test_invalid_base(self):
        with pytest.raises(SequenceParseError):
            complement("U")


class TestDnaSequence:
    def test_normalizes_lowercase(self):
        assert DnaSequence("gcat").text == "GCAT"

    def test_rejects_empty(self):
        with pytest.raises(SequenceParseError):
            DnaSequence("")

    def test_rejects_bad_character(self):
        with pytest.raises(SequenceParseError, match="position 3"):
            DnaSequence("GCXT")

    def test_immutable_hashable(self):
        q = DnaSequence("ACGT")
        with pytest.raises(AttributeError):
            q.text = "AAAA"
        assert q == DnaSequence("acgt")
        assert len({q, DnaSequence("ACGT")}) == 1
        assert len(q) == 4


class TestComplementSequence:
    def test_example(self):
        assert complement_sequence("GCAT") == DnaSequence("CGTA")
        assert complement_sequence("A") == DnaSequence("T")

    def test_involution_exhaustive(self):
        for n in range(1, 5):
            for word in all_words(n):
                assert complement_sequence(complement_sequence(word)).text == word

    def test_involution_random(self):
        rng = random.Random(11)
        for _ in range(200):
            word = random_word(rng, rng.randint(1, 50))
            assert complement_sequence(complement_sequence(word)).text == word


class TestDistances:
    def test_hamming_examples(self):
        assert hamming_distance("GCGC", "GCGC") == 0
        assert hamming_distance("TGGCTCA", "TCCGTGA") == 4
        assert hamming_distance("A", "T") == 1

    def test_hamming_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance("AC", "ACG")

    def test_wc_distance_of_identical_short_words(self):
        # AT vs complement(AT) = TA: both positions differ
        assert wc_distance("AT", "AT") == 2

    def test_wc_distance_to_complement_is_zero(self):
        rng = random.Random(12)
        for _ in range(100):
            word = random_word(rng, rng.randint(1, 30))
            assert wc_distance(word, complement_sequence(word)) == 0

    def test_wc_distance_equals_hamming_to_complement(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 20)
            p, r = random_word(rng, n), random_word(rng, n)
            assert wc_distance(p, r) == hamming_distance(p, complement_sequence(r))

    def test_wc_distance_symmetry_exhaustive(self):
        for n in range(1, 4):
            words = list(all_words(n))
            for p in words:
                for r in words:
                    assert wc_distance(p, r) == wc_distance(r, p)

    def test_wc_distance_length_mismatch(self):
        with pytest.raises(ValueError):
            wc_distance("ACG", "AC")


class TestMu:
    def test_reference_values(self):
        assert mu("TGGCTCA", 1) == 1
        assert mu("CATGGCT", 1) == 2
        for i in range(1, 7):
            assert mu("GGGAGAA", i) == 0

    def test_shift_zero_is_always_zero(self):
        rng = random.Random(14)
        for _ in range(100):
            assert mu(random_word(rng, rng.randint(1, 40)), 0) == 0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            mu("ACGT", 4)
        with pytest.raises(ValueError):
            mu("ACGT", -1)

    def test_matches_wc_distance_identity(self):
        # mu(q, i) = (n - i) - wc_distance(q[i+1..n], q[1..n-i])
        rng = random.Random(15)
        for _ in range(200):
            n = rng.randint(2, 25)
            word = random_word(rng, n)
            i = rng.randint(0, n - 1)
            expected = (n - i) - wc_distance(word[i:], word[: n - i])
            assert mu(word, i) == expected

    def test_bounds(self):
        rng = random.Random(16)
        for _ in range(200):
            n = rng.randint(1, 20)
            word = random_word(rng, n)
            for i, v in enumerate(shift_profile(word)):
                assert 0 <= v <= n - i


class TestShiftProfile:
    def test_all_zero_profile(self):
        assert shift_profile("GGGAGAA") == (0,) * 7

    def test_length_one(self):
        assert shift_profile("C") == (0,)

    def test_agrees_with_mu(self):
        rng = random.Random(17)
        for _ in range(100):
            word = random_word(rng, rng.randint(1, 25))
            profile = shift_profile(word)
            assert profile == tuple(mu(word, i) for i in range(len(word)))


class TestPackedMu:
    @given(word=st.text(alphabet="ACGTacgt", min_size=1, max_size=130))
    def test_matches_direct_count(self, word):
        upper = word.upper()
        n = len(word)
        expected = tuple(oracles.direct_mu(upper, i) for i in range(n))
        assert shift_profile(word) == expected
        assert tuple(mu(word, i) for i in range(n)) == expected
        even, odd = packed_image(word)
        assert tuple(packed_mu(even, odd, n, i) for i in range(n)) == expected

    def test_image_bits(self):
        img = binary_image("TGGCTCA")
        assert packed_image("TGGCTCA") == (int(img.even, 2), int(img.odd, 2))


class TestGcContent:
    def test_examples(self):
        assert gc_content("TGGCTCA") == 4
        assert gc_content("AAAA") == 0

    def test_equals_even_subsequence_weight(self):
        rng = random.Random(18)
        for _ in range(300):
            word = random_word(rng, rng.randint(1, 40))
            assert gc_content(word) == binary_image(word).even.count("1")


class TestBinaryImage:
    def test_reference_word(self):
        img = binary_image("TGGCTCA")
        assert img.even == "0111010"
        assert img.odd == "1110100"

    def test_single_base(self):
        assert binary_image("A") == BinaryImage("00", "0", "0")
        assert binary_image("G").bits == "11"

    def test_interleaving_invariant(self):
        rng = random.Random(19)
        for _ in range(100):
            img = binary_image(random_word(rng, rng.randint(1, 30)))
            rebuilt = "".join(e + o for e, o in zip(img.even, img.odd))
            assert rebuilt == img.bits

    def test_round_trip_exhaustive(self):
        for n in range(1, 5):
            for word in all_words(n):
                assert decode_binary_image(binary_image(word)).text == word

    def test_even_odd_validation(self):
        with pytest.raises(ValueError):
            sequence_from_even_odd("01", "011")
        with pytest.raises(ValueError):
            sequence_from_even_odd("0x", "01")


class TestWcDistanceViaBinary:
    def test_exhaustive_small(self):
        for n in range(1, 4):
            words = list(all_words(n))
            for p in words:
                for r in words:
                    assert wc_distance_via_binary(p, r) == wc_distance(p, r)

    def test_random_large(self):
        rng = random.Random(20)
        for _ in range(500):
            n = rng.randint(1, 48)
            p, r = random_word(rng, n), random_word(rng, n)
            assert wc_distance_via_binary(p, r) == wc_distance(p, r)

    def test_complement_pair_is_zero(self):
        rng = random.Random(21)
        for _ in range(50):
            word = random_word(rng, rng.randint(1, 32))
            assert wc_distance_via_binary(word, complement_sequence(word)) == 0

    def test_shift_constraint_check(self):
        # mu(q, i) = 0 exactly when the binary route reports full distance
        rng = random.Random(22)
        for _ in range(200):
            n = rng.randint(2, 20)
            word = random_word(rng, n)
            i = rng.randint(1, n - 1)
            p, r = word[: n - i], word[i:]
            zero_mu = mu(word, i) == 0
            assert (wc_distance_via_binary(p, r) == n - i) == zero_mu


class TestSequenceFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "seqs.txt"
        write_sequence_file(str(path), ["ACGT", DnaSequence("GGCC")])
        assert read_sequence_file(str(path)) == [DnaSequence("ACGT"), DnaSequence("GGCC")]

    def test_comments_blanks_whitespace(self, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("# header\n\n  acgt  \nTTTT\n")
        assert [q.text for q in read_sequence_file(str(path))] == ["ACGT", "TTTT"]

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("ACGT\nACXT\n")
        with pytest.raises(SequenceParseError) as err:
            read_sequence_file(str(path))
        assert err.value.line == 2
        assert "2" in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("")
        assert read_sequence_file(str(path)) == []


def test_oracle_complement_agrees_with_library():
    assert oracles.COMPLEMENT == seqcore.COMPLEMENT
