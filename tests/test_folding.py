import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oligoforge.folding import (
    DEFAULT_STRUCTURE_THRESHOLD,
    EnergyParams,
    EnergyTable,
    LinearEnergyModel,
    dot_bracket,
    format_table_csv,
    format_table_text,
    has_structure,
    linear_energy,
    min_free_energy,
    nussinov_table,
    packed_linear_energy,
    rotation_energies,
    traceback,
)
from oligoforge.seqcore import COMPLEMENT, mu, packed_image

import oracles
from fixtures import TABLE_1, TABLE_2, TABLE_SEQ_1, TABLE_SEQ_2


def random_word(rng, n):
    return "".join(rng.choice("ACGT") for _ in range(n))


def assert_table_matches(table, expected):
    n = len(expected)
    assert table.n == n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            want = expected[i - 1][j - 1]
            if want is None:
                with pytest.raises(IndexError):
                    table.value(i, j)
            else:
                assert table.value(i, j) == want, (i, j)


class TestEnergyParams:
    def test_defaults(self):
        params = EnergyParams()
        assert params.alpha("A", "T") == params.alpha("T", "A") == -1
        assert params.alpha("G", "C") == params.alpha("C", "G") == -2
        for x, y in itertools.product("ACGT", repeat=2):
            if {x, y} not in ({"A", "T"}, {"G", "C"}):
                assert params.alpha(x, y) == 0

    def test_rejects_positive_energies(self):
        with pytest.raises(ValueError):
            EnergyParams(at=1)
        with pytest.raises(ValueError):
            EnergyParams(gc=2)


class TestNussinovTable:
    def test_reference_table_1(self):
        assert_table_matches(nussinov_table(TABLE_SEQ_1), TABLE_1)

    def test_reference_table_2(self):
        assert_table_matches(nussinov_table(TABLE_SEQ_2), TABLE_2)

    def test_single_base(self):
        table = nussinov_table("G")
        assert table.n == 1
        assert table.value(1, 1) == 0
        assert table.min_free_energy == 0

    def test_overall_energy_nonpositive(self):
        rng = random.Random(31)
        for _ in range(200):
            word = random_word(rng, rng.randint(1, 25))
            assert min_free_energy(word) <= 0

    def test_complement_free_alphabet_gives_zero(self):
        for n in range(1, 9):
            for letters in itertools.product("AG", repeat=n):
                assert min_free_energy("".join(letters)) == 0

    def test_monotone_widening(self):
        rng = random.Random(32)
        for _ in range(50):
            n = rng.randint(2, 20)
            word = random_word(rng, n)
            table = nussinov_table(word)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    assert table.value(i, j) <= table.value(i + 1, j)
                    assert table.value(i, j) <= table.value(i, j - 1)

    def test_entries_recompute_from_dependencies(self):
        rng = random.Random(33)
        params = EnergyParams()
        for _ in range(30):
            n = rng.randint(2, 20)
            word = random_word(rng, n)
            table = nussinov_table(word, params)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    pairing = table.value(i + 1, j - 1) + params.alpha(word[i - 1], word[j - 1])
                    splits = min(
                        table.value(i, k - 1) + table.value(k, j) for k in range(i + 1, j + 1)
                    )
                    assert table.value(i, j) == min(pairing, splits)

    def test_matches_exhaustive_oracle_small(self):
        for n in range(1, 6):
            for letters in itertools.product("ACGT", repeat=n):
                word = "".join(letters)
                assert min_free_energy(word) == oracles.min_energy_noncrossing(word)

    def test_matches_exhaustive_oracle_custom_energies(self):
        rng = random.Random(34)
        params = EnergyParams(at=-3, gc=-1)
        for _ in range(150):
            word = random_word(rng, rng.randint(1, 8))
            assert min_free_energy(word, params) == oracles.min_energy_noncrossing(
                word, at=-3, gc=-1
            )

    def test_min_free_energy_examples(self):
        assert min_free_energy(TABLE_SEQ_1) == -6
        assert min_free_energy(TABLE_SEQ_2) == -1
        assert min_free_energy("AAAA") == 0


def assert_sound_structure(word, table, structure, params=None):
    params = params or EnergyParams()
    seen = set()
    for i, j in structure.pairs:
        assert 1 <= i < j <= len(word)
        assert i not in seen and j not in seen
        seen.update((i, j))
        assert word[i - 1] == COMPLEMENT[word[j - 1]]
        assert params.alpha(word[i - 1], word[j - 1]) < 0
    total = sum(params.alpha(word[i - 1], word[j - 1]) for i, j in structure.pairs)
    assert total == structure.energy == table.min_free_energy


class TestFillAgainstSplitForm:
    @settings(deadline=None)
    @given(
        word=st.text(alphabet="ACGT", min_size=1, max_size=40),
        at=st.integers(min_value=-3, max_value=0),
        gc=st.integers(min_value=-3, max_value=0),
    )
    def test_every_cell_and_traceback(self, word, at, gc):
        params = EnergyParams(at, gc)
        table = nussinov_table(word, params)
        grid = oracles.split_fill(word, at, gc)
        n = len(word)
        for i in range(1, n + 1):
            for j in range(max(i - 1, 1), n + 1):
                assert table.value(i, j) == grid[i][j], (i, j)
        reference = traceback(EnergyTable(n, grid), word, params)
        assert traceback(table, word, params) == reference


def rotate(word, k):
    return word[k:] + word[:k]


class TestRotationEnergies:
    """One windowed fill of the doubled word against a fold per rotation."""

    @settings(deadline=None)
    @given(
        word=st.text(alphabet="ACGT", min_size=1, max_size=40),
        at=st.integers(min_value=-3, max_value=0),
        gc=st.integers(min_value=-3, max_value=0),
        data=st.data(),
    )
    def test_matches_per_word_fill(self, word, at, gc, data):
        n = len(word)
        step = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        count = data.draw(st.integers(min_value=1, max_value=n // step))
        params = EnergyParams(at, gc)
        expected = [
            nussinov_table(rotate(word, k * step), params).min_free_energy for k in range(count)
        ]
        assert rotation_energies(word, step, count, params) == expected

    @settings(deadline=None)
    @given(
        unit=st.text(alphabet="ACGT", min_size=1, max_size=8),
        repeats=st.integers(min_value=2, max_value=5),
        at=st.integers(min_value=-3, max_value=0),
    )
    def test_periodic_words(self, unit, repeats, at):
        word = unit * repeats
        params = EnergyParams(at, -2)
        expected = [min_free_energy(rotate(word, k), params) for k in range(len(word))]
        assert rotation_energies(word, 1, len(word), params) == expected

    @pytest.mark.parametrize("step,count", [(0, 2), (1, 0), (2, 4), (3, 3)])
    def test_rotations_must_stay_below_the_length(self, step, count):
        with pytest.raises(ValueError, match="must stay below 6"):
            rotation_energies("GACGTC", step, count)


class TestTraceback:
    def test_weak_fold_single_pair(self):
        table = nussinov_table(TABLE_SEQ_2)
        structure = traceback(table, TABLE_SEQ_2)
        assert len(structure.pairs) == 1
        ((i, j),) = structure.pairs
        assert {TABLE_SEQ_2[i - 1], TABLE_SEQ_2[j - 1]} == {"A", "T"}
        assert structure.energy == -1

    def test_unpairable_word(self):
        table = nussinov_table("AAAA")
        structure = traceback(table, "AAAA")
        assert structure.pairs == frozenset()
        assert structure.energy == 0

    def test_strong_fold_three_gc_pairs(self):
        # -6 with only G/C present forces exactly three G-C pairs
        table = nussinov_table(TABLE_SEQ_1)
        structure = traceback(table, TABLE_SEQ_1)
        assert len(structure.pairs) == 3
        for i, j in structure.pairs:
            assert {TABLE_SEQ_1[i - 1], TABLE_SEQ_1[j - 1]} == {"G", "C"}
        assert_sound_structure(TABLE_SEQ_1, table, structure)

    def test_deterministic(self):
        rng = random.Random(35)
        for _ in range(50):
            word = random_word(rng, rng.randint(1, 15))
            table = nussinov_table(word)
            first = traceback(table, word)
            second = traceback(nussinov_table(word), word)
            assert first == second

    def test_sound_on_random_words(self):
        rng = random.Random(36)
        for _ in range(200):
            word = random_word(rng, rng.randint(1, 40))
            table = nussinov_table(word)
            assert_sound_structure(word, table, traceback(table, word))

    def test_length_mismatch(self):
        table = nussinov_table("ACGT")
        with pytest.raises(ValueError):
            traceback(table, "ACG")

    def test_dot_bracket(self):
        table = nussinov_table(TABLE_SEQ_2)
        structure = traceback(table, TABLE_SEQ_2)
        rendered = dot_bracket(structure, 9)
        assert len(rendered) == 9
        assert rendered.count("(") == rendered.count(")") == 1


class TestHasStructure:
    def test_reference_verdicts(self):
        assert has_structure(TABLE_SEQ_2) is False
        assert has_structure(TABLE_SEQ_1) is True
        assert has_structure("AAAA") is False

    def test_threshold_is_configurable(self):
        assert has_structure(TABLE_SEQ_2, threshold=-1) is True
        assert has_structure(TABLE_SEQ_1, threshold=-7) is False

    def test_positive_threshold_rejected(self):
        with pytest.raises(ValueError):
            has_structure("ACGT", threshold=1)

    def test_default_threshold(self):
        assert DEFAULT_STRUCTURE_THRESHOLD == -2


class TestLinearEnergyModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinearEnergyModel(gammas=())
        with pytest.raises(ValueError):
            LinearEnergyModel(gammas=(1, 0))
        with pytest.raises(ValueError):
            LinearEnergyModel(gammas=(1, 2))
        model = LinearEnergyModel(kappa=-1, gammas=(1, "1/2"))
        assert model.depth == 2
        assert model.gammas == (Fraction(1), Fraction(1, 2))


class TestLinearEnergy:
    def test_adjacent_gc_pair(self):
        model = LinearEnergyModel(kappa=0, gammas=(1,))
        assert linear_energy("GC", model) == -2

    def test_depth_must_be_below_length(self):
        with pytest.raises(ValueError):
            linear_energy("GC", LinearEnergyModel(gammas=(1, 1)))

    def test_unit_energy_sums_are_minus_mu(self):
        # with alpha = -1 on both pair classes, each diagonal sums to -mu
        rng = random.Random(37)
        params = EnergyParams(at=-1, gc=-1)
        for _ in range(200):
            n = rng.randint(2, 20)
            word = random_word(rng, n)
            d = rng.randint(1, n - 1)
            model = LinearEnergyModel(kappa=0, gammas=(1,) * d)
            total = linear_energy(word, model, params)
            assert total == -sum(mu(word, i) for i in range(1, d + 1))

    def test_shift_free_word_scores_zero(self):
        for depth in range(1, 7):
            model = LinearEnergyModel(kappa=0, gammas=tuple(Fraction(1, 2**k) for k in range(depth)))
            assert linear_energy("GGGAGAA", model) == 0

    def test_kappa_offsets_score(self):
        model = LinearEnergyModel(kappa=Fraction(3, 2), gammas=(1,))
        assert linear_energy("GC", model) == Fraction(-1, 2)

    @given(
        word=st.text(alphabet="ACGT", min_size=2, max_size=40),
        at=st.integers(min_value=-3, max_value=0),
        gc=st.integers(min_value=-3, max_value=0),
        kappa=st.fractions(min_value=-8, max_value=8, max_denominator=8),
        data=st.data(),
    )
    def test_matches_per_pair_sum(self, word, at, gc, kappa, data):
        n = len(word)
        weights = st.fractions(min_value=Fraction(1, 16), max_value=4, max_denominator=16)
        depth = data.draw(st.integers(min_value=1, max_value=n - 1))
        gammas = sorted(data.draw(st.lists(weights, min_size=depth, max_size=depth)), reverse=True)
        expected = kappa + sum(
            gamma * sum(oracles.pair_energy(word[i], word[i + d], at, gc) for i in range(n - d))
            for d, gamma in enumerate(gammas, start=1)
        )
        model = LinearEnergyModel(kappa, gammas)
        assert linear_energy(word, model, EnergyParams(at, gc)) == expected

    @given(
        word=st.text(alphabet="ACGT", min_size=1, max_size=40),
        at=st.integers(min_value=-3, max_value=0),
        gc=st.integers(min_value=-3, max_value=0),
        kappa=st.fractions(min_value=-8, max_value=8, max_denominator=8),
        data=st.data(),
    )
    def test_packed_score_reads_the_diagonals_the_word_has(self, word, at, gc, kappa, data):
        # the model may be deeper than the word: only diagonals d < n count
        n = len(word)
        weights = st.fractions(min_value=Fraction(1, 16), max_value=4, max_denominator=16)
        depth = data.draw(st.integers(min_value=1, max_value=n + 3))
        gammas = sorted(data.draw(st.lists(weights, min_size=depth, max_size=depth)), reverse=True)
        params = EnergyParams(at, gc)
        expected = (
            kappa
            if n == 1
            else linear_energy(word, LinearEnergyModel(kappa, gammas[: n - 1]), params)
        )
        model = LinearEnergyModel(kappa, gammas)
        assert packed_linear_energy(*packed_image(word), n, model, params) == expected


class TestTableRendering:
    def parse_text(self, rendered):
        lines = rendered.splitlines()
        header = lines[0].split()
        rows = []
        for line in lines[1:]:
            tokens = line.split()
            rows.append((tokens[0], tokens[1:]))
        return header, rows

    def test_text_matches_reference_layout(self):
        table = nussinov_table(TABLE_SEQ_1)
        header, rows = self.parse_text(format_table_text(TABLE_SEQ_1, table))
        assert header == list(TABLE_SEQ_1)
        assert [label for label, _ in rows] == list(TABLE_SEQ_1)
        for i, (_, cells) in enumerate(rows):
            expected = ["*" if v is None else str(v) for v in TABLE_1[i]]
            assert cells == expected

    def test_csv_matches_reference_layout(self):
        table = nussinov_table(TABLE_SEQ_2)
        lines = format_table_csv(TABLE_SEQ_2, table).splitlines()
        assert lines[0] == "," + ",".join(TABLE_SEQ_2)
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == TABLE_SEQ_2[i]
            expected = ["*" if v is None else str(v) for v in TABLE_2[i]]
            assert cells[1:] == expected
