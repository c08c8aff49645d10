"""The benchmark's independent checks: they agree with exhaustive
enumeration, accept the program's real outputs, and reject corrupted ones."""

import itertools
import json
import random
from fractions import Fraction

import pytest

import checks
from checks import CheckFailed
from oligoforge import cli

RNG_SEED = 20240


def all_words(n):
    return ("".join(p) for p in itertools.product("ACGT", repeat=n))


def exhaustive_min_energy(word):
    """Minimum over every set of disjoint, non-crossing complementary pairs."""
    n = len(word)
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n)
                  if checks.COMPLEMENT[word[i]] == word[j]]
    best = 0

    def extend(start, chosen, energy):
        nonlocal best
        best = min(best, energy)
        for idx in range(start, len(candidates)):
            i, j = candidates[idx]
            if all(len({i, j, k, l}) == 4 and not (i < k < j < l or k < i < l < j)
                   for k, l in chosen):
                extend(idx + 1, chosen + [(i, j)], energy + checks.pair_energy(word[i], word[j]))

    extend(0, [], 0)
    return best


def run_cli(*argv):
    assert cli.main(list(argv)) == 0


# ---------------------------------------------------------- independent routes


def test_energy_tables_match_exhaustive_search():
    rng = random.Random(RNG_SEED)
    words = ["".join(rng.choice("ACGT") for _ in range(rng.randint(1, 9))) for _ in range(150)]
    assert checks.min_free_energies(words) == [exhaustive_min_energy(w) for w in words]


def direct_mu(word, i):
    return sum(word[l] == checks.COMPLEMENT[word[l + i]] for l in range(len(word) - i))


def test_packed_mu_matches_letter_by_letter():
    rng = random.Random(RNG_SEED)
    for _ in range(300):
        n = rng.randint(2, 40)
        word = "".join(rng.choice("ACGT") for _ in range(n))
        even, odd = checks.pack(word)
        assert even.bit_count() == sum(b in "GC" for b in word)
        for i in range(n):
            assert checks.mu_packed(even, odd, n, i) == direct_mu(word, i)


def test_code_facts_match_letter_by_letter():
    rng = random.Random(RNG_SEED)
    words = ["".join(rng.choice("ACGT") for _ in range(20)) for _ in range(40)]
    facts = checks.code_facts(words)
    assert facts["gc_values"] == sorted({sum(b in "GC" for b in w) for w in words})
    assert facts["min_hamming_distance"] == min(
        sum(a != b for a, b in zip(p, r)) for p, r in itertools.combinations(words, 2))
    assert facts["max_mu"] == max(direct_mu(w, i) for w in words for i in range(1, 20))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_transfer_counts_match_enumeration(s):
    def free(word):
        return all(word[l] != checks.COMPLEMENT[word[l + i]]
                   for i in range(1, s + 1) for l in range(len(word) - i))

    assert checks.g_transfer(s, 7) == [sum(map(free, all_words(n))) for n in range(1, 8)]


def test_gc_transfer_matches_enumeration():
    rows = checks.gc_transfer(6)
    for n in range(1, 7):
        want = [0] * (n + 1)
        for word in all_words(n):
            if all(word[l] != checks.COMPLEMENT[word[l + 1]] for l in range(n - 1)):
                want[word.count("G") + word.count("C")] += 1
        assert rows[n] == want


def test_simplex_generators_are_the_primitive_polynomials():
    gens = checks.simplex_generators(6)
    assert len(gens) == 6  # phi(63) / 6 primitive polynomials of degree 6
    assert all(g.count("1") == 32 for g in gens)


# ------------------------------------------------------------- fold records


@pytest.fixture
def fold_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(RNG_SEED)
    words = ["".join(rng.choice("ACGT") for _ in range(rng.randint(6, 16))) for _ in range(30)]
    (tmp_path / "in.txt").write_text("\n".join(words) + "\n")
    run_cli("fold", "--input", "in.txt", "--format", "json", "--output", "out.json")
    return words, json.loads((tmp_path / "out.json").read_text())


def test_fold_check_accepts_real_output(fold_output):
    words, records = fold_output
    checks.check_fold_json(json.dumps(records), words)


def corrupt_energy(records):
    records[3]["min_free_energy"] -= 1


def corrupt_cell(records):
    records[5]["table"][0][2] -= 1


def corrupt_pair(records):
    rec = next(r for r in records if r["pairs"])
    i, j = rec["pairs"][0]
    rec["pairs"][0] = [i, j + 1 if j < len(rec["sequence"]) else j - 1]


def drop_record(records):
    del records[7]


@pytest.mark.parametrize("corrupt", [corrupt_energy, corrupt_cell, corrupt_pair, drop_record])
def test_fold_check_rejects_corruption(fold_output, corrupt):
    words, records = fold_output
    corrupt(records)
    with pytest.raises(CheckFailed):
        checks.check_fold_json(json.dumps(records), words)


def test_structure_check_rejects_crossing_and_wrong_energy():
    word = "GAGCTC"
    checks.check_structure(word, [[1, 6], [2, 5], [3, 4]], -5)
    with pytest.raises(CheckFailed):
        checks.check_structure(word, [[1, 6], [2, 5], [3, 4]], -4)
    with pytest.raises(CheckFailed):
        checks.check_structure("GCGC", [[1, 2], [2, 3]], -4)
    with pytest.raises(CheckFailed):
        checks.check_structure("GCGC", [[1, 3], [2, 4]], 0)


# ------------------------------------------------------------------ screen

LIMITS = {"gc_min": 3, "gc_max": 9, "s": 2, "max_mu": 3, "threshold": -6,
          "approx_threshold": Fraction(-5)}


@pytest.fixture
def screen_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(RNG_SEED)
    words = ["".join(rng.choice("ACGT") for _ in range(rng.randint(8, 14))) for _ in range(300)]
    (tmp_path / "in.txt").write_text("\n".join(words) + "\n")
    run_cli("screen", "--input", "in.txt", "--output", "kept.txt", "--log", "rej.log",
            "--gc-min", "3", "--gc-max", "9", "-s", "2", "--max-mu", "3",
            "--threshold", "-6", "--approx-threshold", "-5")
    energies = dict(zip(words, checks.min_free_energies(words)))
    expected = checks.expected_screen(words, energies, LIMITS)
    return (tmp_path / "kept.txt").read_text(), (tmp_path / "rej.log").read_text(), expected


def test_screen_check_accepts_real_output(screen_output):
    kept, log, expected = screen_output
    reasons = {line.split("\t")[2].split(" ")[0][:2] for line in log.splitlines()}
    assert reasons == {"GC", "mu", "en", "ap"} and kept
    checks.check_screen(kept, log, expected)


def test_screen_check_rejects_dropped_word(screen_output):
    kept, log, expected = screen_output
    with pytest.raises(CheckFailed):
        checks.check_screen("".join(kept.splitlines(True)[1:]), log, expected)


def test_screen_check_rejects_wrong_reason(screen_output):
    kept, log, expected = screen_output
    lines = log.splitlines()
    idx = next(i for i, line in enumerate(lines) if "\tenergy " in line)
    word, _, reason = lines[idx].split("\t")
    lines[idx] = f"{word}\trejected\tenergy {int(reason.split()[1]) - 1}"
    with pytest.raises(CheckFailed):
        checks.check_screen(kept, "\n".join(lines) + "\n", expected)


# ------------------------------------------------------------------- codes


@pytest.fixture
def code_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    generator = checks.simplex_generators(3)[0]
    run_cli("construct", "-m", "3", "--generator", generator, "--output", "code.txt")
    words = (tmp_path / "code.txt").read_text().split()
    meta = json.loads((tmp_path / "code.txt.meta.json").read_text())
    return words, meta, generator


def test_code_checks_accept_real_output(code_output):
    words, meta, generator = code_output
    facts = checks.check_code_file(words, generator, 3)
    sample = dict(zip(words, checks.min_free_energies(words)))
    checks.check_sidecar(meta, words, generator, 3, facts, sample)


def test_code_check_rejects_dropped_word(code_output):
    words, meta, generator = code_output
    with pytest.raises(CheckFailed):
        checks.check_code_file(words[:-1], generator, 3)


def test_sidecar_check_rejects_flipped_energy(code_output):
    words, meta, generator = code_output
    facts = checks.check_code_file(words, generator, 3)
    sample = dict(zip(words, checks.min_free_energies(words)))
    word = next(w for w in words if meta["energies"][w] < 0)
    meta["energies"][word] += 1
    with pytest.raises(CheckFailed):
        checks.check_sidecar(meta, words, generator, 3, facts, sample)


def test_verify_report_check_rejects_wrong_count(code_output, tmp_path):
    words, meta, generator = code_output
    run_cli("verify", "--input", "code.txt", "--output", "report.txt")
    report = (tmp_path / "report.txt").read_text()
    facts = checks.code_facts(words)
    checks.check_verify_report(report, words, facts, meta["energies"], 3)
    with pytest.raises(CheckFailed):
        checks.check_verify_report(report.replace("codewords: 49", "codewords: 48"),
                                   words, facts, meta["energies"], 3)


# ------------------------------------------------------------------ counts


def bump(text, row, column):
    lines = text.splitlines()
    cells = lines[row].split("\t")
    cells[column] = str(int(cells[column]) + 1)
    lines[row] = "\t".join(cells)
    return "\n".join(lines) + "\n"


def test_enumerate_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("enumerate", "-s", "2", "-n", "6", "--oracle", "--output", "e.tsv")
    text = (tmp_path / "e.tsv").read_text()
    checks.check_enumerate(text, 2, 6)
    for column in (1, 2):
        with pytest.raises(CheckFailed):
            checks.check_enumerate(bump(text, 4, column), 2, 6)


@pytest.mark.parametrize("oracle", [True, False])
def test_count_gc_check(tmp_path, monkeypatch, oracle):
    monkeypatch.chdir(tmp_path)
    run_cli("count", "--gc", "-n", "5", "--output", "c.tsv", *(["--oracle"] if oracle else []))
    text = (tmp_path / "c.tsv").read_text()
    checks.check_count_gc(text, 5, oracle)
    with pytest.raises(CheckFailed):
        checks.check_count_gc(bump(text, 7, 2), 5, oracle)
