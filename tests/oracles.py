"""Independent brute-force oracles used by the tests.

Everything here recomputes results from first principles (explicit
enumeration, direct counting) so the library's recursions, tables and
closed forms are checked against a second route.
"""

from __future__ import annotations

import itertools

COMPLEMENT = {"A": "T", "T": "A", "C": "G", "G": "C"}


def pair_energy(x: str, y: str, at: int = -1, gc: int = -2) -> int:
    if {x, y} == {"A", "T"}:
        return at
    if {x, y} == {"G", "C"}:
        return gc
    return 0


def noncrossing_pairings(word: str, at: int = -1, gc: int = -2):
    """Yield every non-crossing set of complementary pairings (0-based).

    Decomposes on the leftmost position: either it stays unpaired or it
    pairs with some k, splitting the rest into an inside and an outside
    region. Each pairing set is produced exactly once; no energies are
    combined across sets, so this is a genuine enumeration, not a table
    fill.
    """

    def gen(i, j):
        if i >= j:
            yield []
            return
        yield from gen(i + 1, j)
        for k in range(i + 1, j + 1):
            if pair_energy(word[i], word[k], at, gc) < 0:
                for inner in gen(i + 1, k - 1):
                    for outer in gen(k + 1, j):
                        yield [(i, k)] + inner + outer

    yield from gen(0, len(word) - 1)


def split_fill(word: str, at: int = -1, gc: int = -2) -> list[list[int]]:
    """Energy table by the split recursion, as a 1-based (n+1)x(n+1) grid.

    Each cell is the minimum of pairing the endpoints,
    E[i+1][j-1] + alpha(q_i, q_j), and every split E[i][k-1] + E[k][j] for
    i < k <= j, filled by increasing span. The library's partner-scan fill
    uses another recursion; both give the exact minimum over non-crossing
    structures, so the tables must agree cell for cell.
    """
    n = len(word)
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    for span in range(1, n):
        for i in range(1, n - span + 1):
            j = i + span
            row = grid[i]
            best = grid[i + 1][j - 1] + pair_energy(word[i - 1], word[j - 1], at, gc)
            for k in range(i + 1, j + 1):
                v = row[k - 1] + grid[k][j]
                if v < best:
                    best = v
            row[j] = best
    return grid


def min_energy_noncrossing(word: str, at: int = -1, gc: int = -2) -> int:
    """Exhaustive minimum energy over all non-crossing pairings."""
    return min(
        sum(pair_energy(word[i], word[j], at, gc) for i, j in pairing)
        for pairing in noncrossing_pairings(word, at, gc)
    )


def format_table_text(word: str, table) -> str:
    """A table's text rendering, measured cell by cell: every cell as text,
    the width of the widest, then every cell right-justified to it."""
    cells = [[str(c) for c in row] for row in table.cells()]
    width = max(max(len(c) for row in cells for c in row), 1)
    lines = [" " + " ".join(b.rjust(width) for b in word)]
    for base, row in zip(word, cells):
        lines.append(base + " ".join(c.rjust(width) for c in row))
    return "\n".join(lines)


def format_table_csv(word: str, table) -> str:
    """A table's csv rendering, cell by cell: the bases as a header, then
    each base and its row's cells, every cell as text, comma-separated."""
    lines = ["," + ",".join(word)]
    for base, row in zip(word, table.cells()):
        lines.append(",".join([base] + [str(c) for c in row]))
    return "\n".join(lines)


def all_words(n: int):
    for letters in itertools.product("ACGT", repeat=n):
        yield "".join(letters)


def direct_mu(word: str, i: int) -> int:
    return sum(word[l] == COMPLEMENT[word[l + i]] for l in range(len(word) - i))


def census_mu1(n: int) -> dict[int, int]:
    """How many length-n words have each exact shift-1 match count."""
    counts: dict[int, int] = {}
    for word in all_words(n):
        m = direct_mu(word, 1)
        counts[m] = counts.get(m, 0) + 1
    return counts


def census_mu1zero_by_gc(n: int) -> dict[int, int]:
    """GC-content histogram of the length-n words with no shift-1 match."""
    counts: dict[int, int] = {}
    for word in all_words(n):
        if direct_mu(word, 1) == 0:
            w = word.count("G") + word.count("C")
            counts[w] = counts.get(w, 0) + 1
    return counts


def naive_hamming(a: str, b: str) -> int:
    assert len(a) == len(b)
    return sum(x != y for x, y in zip(a, b))


def naive_min_distance(words) -> int:
    texts = [str(w) for w in words]
    return min(
        naive_hamming(a, b) for a, b in itertools.combinations(texts, 2)
    )


def is_simplex_generator(m: int, generator: str) -> bool:
    """Whether the cyclic shifts of generator are the nonzero words of a
    simplex code of dimension m >= 2, from the definition: length 2^m - 1,
    weight 2^(m-1), n distinct shifts, and the XOR of every pair of shifts
    zero or a shift (n^2 XORs)."""
    n = 2**m - 1
    if m < 2 or len(generator) != n or set(generator) - {"0", "1"}:
        return False
    if generator.count("1") != 2 ** (m - 1):
        return False
    shifts = {int(generator[k:] + generator[:k], 2) for k in range(n)}
    members = shifts | {0}
    return len(shifts) == n and all(members.issuperset(map(a.__xor__, shifts)) for a in shifts)
