"""Independent computations and output checks for the oligoforge benchmark.

Nothing here imports oligoforge. Every expected value is recomputed from
first principles: packed even/odd bitmasks for GC, Hamming distance and the
shift matches mu, a Nussinov fill over a different recursion for the folding
energies, and transfer matrices over the last letters for the counts. A
check raises CheckFailed naming the first wrong value it finds.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

COMPLEMENT = {"A": "T", "T": "A", "C": "G", "G": "C"}
GC_LETTERS = frozenset("GC")

# Two-bit image of a base: (even bit, odd bit) with A=00, T=01, C=10, G=11.
_EVEN_BITS = str.maketrans("ATCG", "0011")
_ODD_BITS = str.maketrans("ATCG", "0101")

# Linear screening model of the CLI: weights 1, 1/2, 1/4, 1/8 on the
# first four shift diagonals, no offset.
LINEAR_GAMMAS = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))


class CheckFailed(Exception):
    """An output of the program disagrees with the independent result."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------ packed words


def pack(word: str) -> tuple[int, int]:
    """Even and odd bitmasks of a word; bit l belongs to letter l."""
    even = word.translate(_EVEN_BITS)[::-1]
    odd = word.translate(_ODD_BITS)[::-1]
    return int(even, 2), int(odd, 2)


def mu_packed(even: int, odd: int, n: int, i: int) -> int:
    """Positions l < n-i where letter l is the complement of letter l+i.

    Complementary bases share the even bit and differ in the odd bit.
    """
    mask = (1 << (n - i)) - 1
    return (~(even ^ (even >> i)) & (odd ^ (odd >> i)) & mask).bit_count()


def pair_energy(x: str, y: str) -> int:
    """The CLI's default pair energies: A-T -1, G-C -2, anything else 0."""
    if {x, y} == {"A", "T"}:
        return -1
    if {x, y} == {"G", "C"}:
        return -2
    return 0


def code_facts(words: list[str]) -> dict:
    """GC values, minimum Hamming distance and largest mu of an equal-length
    code (length at most 64), vectorised over packed words. GC is the even
    mask's weight; two words differ where either mask differs."""
    n = len(words[0])
    evens, odds = (np.array(masks, dtype=np.uint64) for masks in zip(*map(pack, words)))
    min_distance = n
    for idx in range(len(words) - 1):
        d = np.bitwise_count((evens[idx] ^ evens[idx + 1 :]) | (odds[idx] ^ odds[idx + 1 :]))
        min_distance = min(min_distance, int(d.min()))
    max_mu = 0
    for i in range(1, n):
        mask = np.uint64((1 << (n - i)) - 1)
        shift = np.uint64(i)
        hits = ~(evens ^ (evens >> shift)) & (odds ^ (odds >> shift)) & mask
        max_mu = max(max_mu, int(np.bitwise_count(hits).max()))
    gc_values = sorted({int(v) for v in np.bitwise_count(evens)})
    return {"gc_values": gc_values, "min_hamming_distance": min_distance, "max_mu": max_mu}


# ---------------------------------------------------------------- folding

_BASE_INDEX = str.maketrans("ACGT", "\x00\x01\x02\x03")


def energy_tables(words: list[str]) -> np.ndarray:
    """Minimum-energy tables of equal-length words, filled together.

    F[i, j, b] is the minimum energy over positions i..j-1 (half-open) of
    word b. The recursion decomposes on the first base, which is unpaired
    or paired with some k:
        F[i, j] = min(F[i+1, j], min_k alpha(i, k) + F[i+1, k] + F[k+1, j]).
    The program fills its table by pairing the two ends or splitting, so
    the two routes share no step.
    """
    n = len(words[0])
    pair = np.array([[pair_energy(x, y) for y in "ACGT"] for x in "ACGT"], dtype=np.int64)
    codes = np.array(
        [np.frombuffer(w.translate(_BASE_INDEX).encode("ascii"), dtype=np.uint8) for w in words]
    ).T
    alpha = pair[codes[:, None, :], codes[None, :, :]]  # (n, n, B)
    batch = len(words)
    table = np.zeros((n + 2, n + 1, batch), dtype=np.int64)
    k_index = np.arange(n)[:, None]
    j_index = np.arange(n + 1)[None, :]
    for i in range(n - 2, -1, -1):
        ks = slice(i + 1, n)
        head = alpha[i, ks] + table[i + 1, ks]  # (n-i-1, B)
        cand = head[:, None, :] + table[i + 2 : n + 1]  # (k, j, B)
        valid = (j_index > k_index[ks])[:, :, None]
        # F[i+1, j] <= 0 always, so a 0 in place of k >= j changes no minimum
        best = np.where(valid, cand, 0).min(axis=0)
        table[i] = np.minimum(table[i + 1], best)
        table[i, : i + 2] = 0
    return table


def by_length(words: list[str]) -> dict[int, list[int]]:
    """Indices of the words, grouped by word length."""
    groups: dict[int, list[int]] = {}
    for idx, w in enumerate(words):
        groups.setdefault(len(w), []).append(idx)
    return groups


def min_free_energies(words: list[str]) -> list[int]:
    """Minimum free energy of each word, batching words of equal length."""
    result = [0] * len(words)
    for n, idxs in by_length(words).items():
        tops = energy_tables([words[i] for i in idxs])[0, n]
        for idx, e in zip(idxs, tops.tolist()):
            result[idx] = e
    return result


def energy_floor(word: str) -> int:
    """Every structure pairs G with C and A with T, so no minimum energy lies
    below -(2 min(#G,#C) + min(#A,#T))."""
    counts = {b: word.count(b) for b in "ACGT"}
    return -(2 * min(counts["G"], counts["C"]) + min(counts["A"], counts["T"]))


def check_structure(word: str, pairs, energy: int) -> None:
    """Pairs (1-based) are disjoint, non-crossing, complementary, and their
    energies sum to the reported value."""
    n = len(word)
    partner = {}
    for pair in pairs:
        expect(len(pair) == 2, f"{word}: malformed pair {pair}")
        i, j = pair
        expect(1 <= i < j <= n, f"{word}: pair {pair} out of range")
        expect(i not in partner and j not in partner, f"{word}: position reused in {pair}")
        expect(COMPLEMENT[word[i - 1]] == word[j - 1], f"{word}: pair {pair} not complementary")
        partner[i], partner[j] = j, i
    open_stack = []
    for pos in range(1, n + 1):
        if pos not in partner:
            continue
        if partner[pos] > pos:
            open_stack.append(pos)
        else:
            expect(open_stack and open_stack.pop() == partner[pos], f"{word}: crossing pairs")
    total = sum(pair_energy(word[i - 1], word[j - 1]) for i, j in pairs)
    expect(total == energy, f"{word}: pair energies sum to {total}, reported {energy}")


# ------------------------------------------------------------------- codes


def lfsr_sequence(taps: tuple[int, ...], m: int) -> str:
    """Output of a Fibonacci shift register started from all ones."""
    state = [1] * m
    bits = []
    for _ in range(2**m - 1):
        bits.append(state[0])
        feedback = 0
        for t in taps:
            feedback ^= state[t]
        state = state[1:] + [feedback]
    return "".join(map(str, bits))


def simplex_generators(m: int) -> list[str]:
    """One maximal-length sequence per primitive feedback polynomial of
    degree m, found by trying every tap set (period 2^m - 1, weight
    2^(m-1), all rotations distinct)."""
    n = 2**m - 1
    found = []
    for mask in range(2 ** (m - 1)):
        taps = (0,) + tuple(t for t in range(1, m) if mask >> (t - 1) & 1)
        seq = lfsr_sequence(taps, m)
        rotations = {seq[k:] + seq[:k] for k in range(n)}
        if len(rotations) == n and seq.count("1") == 2 ** (m - 1):
            found.append(seq)
    return found


def dna_code_words(generator: str) -> set[str]:
    """Words from every ordered pair (even, odd) of generator rotations."""
    n = len(generator)
    rotations = [generator[k:] + generator[:k] for k in range(n)]
    letter = {("0", "0"): "A", ("0", "1"): "T", ("1", "0"): "C", ("1", "1"): "G"}
    return {
        "".join(letter[pair] for pair in zip(even, odd)) for even in rotations for odd in rotations
    }


def check_code_file(words: list[str], generator: str, m: int) -> dict:
    """The written code is the full construction and meets the paper's
    bounds: (2^m-1)^2 distinct words, constant GC 2^(m-1), minimum
    distance 2^(m-1), every mu at most 2^(m-2)."""
    n = 2**m - 1
    expect(len(words) == n * n, f"code has {len(words)} words, expected {n * n}")
    expect(len(set(words)) == len(words), "code has duplicate words")
    expect(all(len(w) == n for w in words), f"code words are not all of length {n}")
    expect(set(words) == dna_code_words(generator), "code differs from the construction")
    facts = code_facts(words)
    expect(facts["gc_values"] == [2 ** (m - 1)], f"GC values {facts['gc_values']}")
    expect(
        facts["min_hamming_distance"] == 2 ** (m - 1),
        f"minimum distance {facts['min_hamming_distance']}",
    )
    expect(facts["max_mu"] <= 2 ** (m - 2), f"largest mu {facts['max_mu']}")
    return facts


def check_sidecar(meta: dict, words: list[str], generator: str, m: int, facts: dict,
                  sample_energies: dict[str, int]) -> None:
    """The sidecar declares the recomputed facts, and its energies lie within
    the composition bounds and match the independent fill on a sample."""
    expect(isinstance(meta, dict), "sidecar is not a JSON object")
    declared = {
        "m": m,
        "generator": generator,
        "size": len(words),
        "length": len(words[0]),
        "min_hamming_distance": facts["min_hamming_distance"],
        "gc_content": 2 ** (m - 1),
        "max_mu": facts["max_mu"],
        "mu_bound": 2 ** (m - 2),
    }
    for key, value in declared.items():
        expect(meta.get(key) == value, f"sidecar {key}: {meta.get(key)!r}, expected {value!r}")
    energies = meta.get("energies")
    expect(isinstance(energies, dict) and set(energies) == set(words),
           "sidecar energies do not cover exactly the code words")
    for w, e in energies.items():
        low = energy_floor(w)
        expect(isinstance(e, int) and low <= e <= 0, f"sidecar energy {e} of {w} outside [{low}, 0]")
    for w, e in sample_energies.items():
        expect(energies[w] == e, f"sidecar energy of {w} is {energies[w]}, independent DP gives {e}")


def check_verify_report(text: str, words: list[str], facts: dict, energies: dict,
                        m: int, threshold: int = -2) -> None:
    values = list(energies.values())
    folded = sum(1 for e in values if e <= threshold)
    expected = [
        f"codewords: {len(words)}",
        f"length: {len(words[0])}",
        f"min_hamming_distance: {facts['min_hamming_distance']}",
        f"gc_content: constant {2 ** (m - 1)}",
        f"max_mu: {facts['max_mu']} (bound {2 ** (m - 2)})",
        f"min_free_energy: min {min(values)} max {max(values)}",
        f"folded_at_threshold_{threshold}: {folded} of {len(words)}",
        "verdict: PASS",
    ]
    expect(text.splitlines() == expected, f"report {text.splitlines()} != {expected}")


# ------------------------------------------------------------------- pool


def screen_reason(word: str, energy: int, limits: dict) -> str | None:
    """First constraint a word fails, in the CLI's documented order: GC,
    then mu_1..mu_s, then the folding threshold, then the linear score."""
    even, odd = pack(word)
    n = len(word)
    gc = even.bit_count()
    if not limits["gc_min"] <= gc <= limits["gc_max"]:
        return f"GC {gc}"
    for i in range(1, min(limits["s"], n - 1) + 1):
        v = mu_packed(even, odd, n, i)
        if v > limits["max_mu"]:
            return f"mu_{i} {v}"
    if energy <= limits["threshold"]:
        return f"energy {energy}"
    score = sum(
        gamma * sum(pair_energy(word[l], word[l + d]) for l in range(n - d))
        for d, gamma in enumerate(LINEAR_GAMMAS[: n - 1], start=1)
    )
    if score <= limits["approx_threshold"]:
        return f"approx_energy {score}"
    return None


def expected_screen(words: list[str], energies: dict, limits: dict) -> tuple[list[str], list[str]]:
    """Kept words and rejection-log lines the screen must produce, in order."""
    kept, log = [], []
    for w in words:
        reason = screen_reason(w, energies[w], limits)
        if reason is None:
            kept.append(w)
        else:
            log.append(f"{w}\trejected\t{reason}")
    return kept, log


def check_screen(kept_text: str, log_text: str, expected: tuple[list[str], list[str]]) -> None:
    kept, log = kept_text.splitlines(), log_text.splitlines()
    exp_kept, exp_log = expected
    expect(len(kept) + len(log) == len(exp_kept) + len(exp_log),
           f"{len(kept)} kept + {len(log)} rejected != {len(exp_kept) + len(exp_log)} input words")
    for got, want in zip(kept, exp_kept):
        expect(got == want, f"kept {got!r}, expected {want!r}")
    expect(len(kept) == len(exp_kept), f"{len(kept)} words kept, expected {len(exp_kept)}")
    for got, want in zip(log, exp_log):
        expect(got == want, f"log line {got!r}, expected {want!r}")


def check_fold_json(text: str, words: list[str], threshold: int = -2) -> None:
    """Each record holds the word, a full table equal to the independent
    fill, and a valid structure whose energy is the table's top-right."""
    records = json.loads(text)
    expect(isinstance(records, list) and len(records) == len(words),
           f"fold wrote {len(records)} records for {len(words)} words")
    for n, idxs in by_length(words).items():
        tables = energy_tables([words[i] for i in idxs])
        for b, idx in enumerate(idxs):
            rec, word = records[idx], words[idx]
            expect(rec.get("sequence") == word, f"record {idx} is {rec.get('sequence')!r}, expected {word}")
            grid = tables[:, :, b].tolist()
            want = [[grid[i - 1][j] if j >= i - 1 else "*" for j in range(1, n + 1)]
                    for i in range(1, n + 1)]
            expect(rec.get("table") == want, f"{word}: table differs from the independent fill")
            energy = rec.get("min_free_energy")
            expect(energy == want[0][n - 1], f"{word}: energy {energy}, top-right {want[0][n - 1]}")
            expect(rec.get("threshold") == threshold and rec.get("has_structure") == (energy <= threshold),
                   f"{word}: structure verdict {rec.get('has_structure')} at {rec.get('threshold')}")
            pairs = rec.get("pairs")
            check_structure(word, pairs, energy)
            brackets = ["."] * n
            for i, j in pairs:
                brackets[i - 1], brackets[j - 1] = "(", ")"
            expect(rec.get("dot_bracket") == "".join(brackets), f"{word}: dot-bracket disagrees with pairs")


# ----------------------------------------------------------------- counts


def g_transfer(s: int, max_n: int) -> list[int]:
    """g(s, n) for n = 1..max_n: walks over states holding the last
    min(s, n) letters, refusing a letter complementary to any of them."""
    states = {"": 1}
    counts = []
    for _ in range(max_n):
        nxt: dict[str, int] = {}
        for tail, c in states.items():
            for b in "ACGT":
                if COMPLEMENT[b] in tail:
                    continue
                key = (tail + b)[-s:]
                nxt[key] = nxt.get(key, 0) + c
        states = nxt
        counts.append(sum(states.values()))
    return counts


def gc_transfer(max_n: int) -> list[list[int]]:
    """rows[n][w]: words of length n with mu_1 = 0 and GC-content w, from a
    walk over the last letter weighted by GC."""
    by_last = {b: [0, 1] if b in GC_LETTERS else [1, 0] for b in "ACGT"}
    rows = [[1], [2, 2]]
    for n in range(2, max_n + 1):
        total = [sum(col) for col in zip(*by_last.values())]
        nxt = {}
        for b in "ACGT":
            allowed = [t - x for t, x in zip(total, by_last[COMPLEMENT[b]])]
            nxt[b] = [0] + allowed if b in GC_LETTERS else allowed + [0]
        by_last = nxt
        rows.append([sum(col) for col in zip(*by_last.values())])
    return rows[: max_n + 1]


def _rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    expect(lines and lines[0] == header, f"header {lines[:1]}, expected {header!r}")
    return [line.split("\t") for line in lines[1:]]


def check_enumerate(text: str, s: int, max_n: int) -> None:
    rows = _rows(text, "n\tg_s(n)\toracle\tmatch")
    expected = g_transfer(s, max_n)
    expect(len(rows) == max_n, f"{len(rows)} rows, expected {max_n}")
    for n, (row, want) in enumerate(zip(rows, expected), start=1):
        expect(row == [str(n), str(want), str(want), "ok"], f"row {row}, transfer matrix gives {want}")


def check_count_gc(text: str, max_n: int, oracle: bool) -> None:
    header = "n\tw\tcount" + ("\toracle\tmatch" if oracle else "")
    rows = _rows(text, header)
    table = gc_transfer(max_n)
    expect(len(rows) == sum(n + 1 for n in range(1, max_n + 1)), f"{len(rows)} rows for n <= {max_n}")
    seen: dict[int, list[int]] = {}
    for row in rows:
        n, w, count = int(row[0]), int(row[1]), int(row[2])
        expect(count == table[n][w], f"n={n} w={w}: count {count}, transfer matrix {table[n][w]}")
        if oracle:
            expect(row[3:] == [row[2], "ok"], f"n={n} w={w}: oracle columns {row[3:]}")
        seen.setdefault(n, []).append(count)
    for n, counts in seen.items():
        expect(sum(counts) == 4 * 3 ** (n - 1), f"n={n}: counts sum to {sum(counts)}")
        expect(counts == counts[::-1], f"n={n}: counts not symmetric under w <-> n-w")
