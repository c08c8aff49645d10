"""Minimum-free-energy folding prediction for DNA words.

The predictor fills a table E[i][j] holding the minimum energy of any
non-crossing set of complementary pairings within positions i..j, using
per-pair energies (A-T and G-C only), with position j either unpaired or
paired to a complementary partner. All energies are exact integers; the
simpler screening score in ``linear_energy`` uses exact rationals.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import add, neg

from .seqcore import DnaSequence, _text, packed_image

DEFAULT_STRUCTURE_THRESHOLD = -2
# min_free_energies fills a length's words in blocks of at least this many lanes;
# energy_tables fills words in input-order chunks of at most this many
LANE_BLOCK = 2048


class EnergyParams:
    """Pairing energies: at for {A,T}, gc for {G,C}, zero elsewhere.

    Both values must be <= 0 (a pairing never raises the energy). Only the
    two complementary pair classes are tunable; traced structures then pair
    complementary bases exclusively.
    """

    __slots__ = ("at", "gc", "_alpha")

    def __init__(self, at: int = -1, gc: int = -2):
        if at > 0 or gc > 0:
            raise ValueError("pair energies must be <= 0")
        self.at = at
        self.gc = gc
        alpha = {}
        for x in "ACGT":
            for y in "ACGT":
                alpha[x + y] = 0
        alpha["AT"] = alpha["TA"] = at
        alpha["GC"] = alpha["CG"] = gc
        self._alpha = alpha

    def alpha(self, x: str, y: str) -> int:
        """Energy contributed by pairing bases x and y (order-free)."""
        return self._alpha[x + y]

    def __repr__(self) -> str:
        return f"EnergyParams(at={self.at}, gc={self.gc})"

    def __eq__(self, other) -> bool:
        if isinstance(other, EnergyParams):
            return self.at == other.at and self.gc == other.gc
        return NotImplemented


DEFAULT_ENERGY_PARAMS = EnergyParams()


class EnergyTable:
    """Upper-triangular table of minimum energies for one sequence.

    value(i, j) is defined for 1 <= i <= n and i-1 <= j <= n (the j = i and
    j = i-1 cells are the zero boundary); anything below that is outside
    the table. It keeps the scores S = -E flat (from a grid, or as given:
    bytes from energy_tables), row i holding columns i-1..n, so scores[1:]
    is row(1), ..., row(n) in turn.
    """

    __slots__ = ("n", "scores")

    def __init__(self, n: int, grid: list[list[int]] | None = None, scores=None):
        self.n = n
        if grid is not None:
            scores = [-e for i in range(1, n + 1) for e in grid[i][i - 1 : n + 1]]
        self.scores = scores

    def value(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and j <= self.n and j >= i - 1 and j >= 1):
            raise IndexError(f"no entry ({i},{j}) in a table of size {self.n}")
        return -self.scores[_offset(self.n, i) + j]

    def row(self, i: int) -> list[int]:
        """value(i, j) for j = max(1, i-1)..n."""
        at = _offset(self.n, i)
        return list(map(neg, self.scores[at + max(1, i - 1) : at + self.n + 1]))

    def cells(self) -> list[list[int | str]]:
        """The n x n grid: cells()[i-1][j-1] is value(i, j), or '*' below j = i-1."""
        return [["*"] * (i - 2) + self.row(i) for i in range(1, self.n + 1)]

    @property
    def min_free_energy(self) -> int:
        """E[1][n], the minimum energy over the whole sequence."""
        return -self.scores[self.n]


def _offset(n: int, i: int) -> int:
    """_offset(n, i) + j indexes cell (i, j) in the flat scores of a table of size n."""
    return (i - 1) * (2 * n + 4 - i) // 2 - i + 1


def _fill(s: str, params: EnergyParams, span: int) -> list[list[int]]:
    """Energy grid of s, filled only where j - i < span.

    Diagonal and first sub-diagonal start at zero. Each remaining cell
    leaves j unpaired or pairs it with some partner k, i <= k < j:

        E[i][j] = min(E[i][j-1],
                      min over k with alpha(q_k, q_j) < 0 of
                          E[i][k-1] + (E[k+1][j-1] + alpha(q_k, q_j)))

    Rows run from i = n-1 down to 1 and j runs upward. The bracketed term
    is fixed once row k+1 is filled, and each cell scans only column j's
    candidate list, sparsified as by Wexler, Zilberstein & Ziv-Ukelson
    (J. Comput. Biol. 2007) and Backofen, Tsur, Zakov & Ziv-Ukelson
    (J. Discrete Algorithms 2011): in row k, (k, j) joins it only when its
    term is below every other value of cell (k, j), E[k][j-1] or a listed
    E[k][k'-1] + term'. Otherwise, as E[i][k-1] + E[k][x] >= E[i][x] (two
    structures side by side form one), every row i <= k already has a value
    at most E[i][k-1] + term, so the table is the same cell for cell. A
    cell within the span reads only cells within it, so row k stops at
    column k + span - 1.
    """
    n = len(s)
    alpha = params._alpha
    # pair energy of base x with each position j (index 0 unused)
    pairing = {x: [0] + [alpha[x + y] for y in s] for x in set(s)}
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    candidates = [[] for _ in range(n + 1)]  # column j: (k-1, E[k+1][j-1] + alpha)
    for i in range(n - 1, 0, -1):
        row = grid[i]
        below = grid[i + 1]
        end = i + span  # columns i+1 .. end-1 are filled
        if end > n:
            end = n + 1
        best = 0  # E[i][i]
        for j, a in enumerate(pairing[s[i - 1]][i + 1 : end], i + 1):
            column = candidates[j]
            for left, c in column:
                c += row[left]
                if c < best:
                    best = c
            if a and (term := below[j - 1] + a) < best:
                column.append((i - 1, term))
                best = term
            row[j] = best
    return grid


def nussinov_table(q: DnaSequence | str, params: EnergyParams | None = None) -> EnergyTable:
    """Fill the energy table for q.

    The fill (see _fill) runs over the full span and gives the same table,
    cell for cell, as the split form that pairs the endpoints or splits at
    every k: both are the exact minimum over non-crossing structures within
    i..j. Runs in O(n^3).
    """
    s = _text(q)
    return EnergyTable(len(s), _fill(s, params or DEFAULT_ENERGY_PARAMS, len(s)))


def rotation_energies(
    q: DnaSequence | str, step: int, count: int, params: EnergyParams | None = None
) -> list[int]:
    """Minimum free energies of the rotations of q by 0, step, ..., (count-1)*step.

    Rotation k*step of q is the window of length n starting at k*step in
    q + q, and a cell depends only on its own substring, so one fill of
    the arc (q + q)[: n + (count-1)*step] limited to spans below n holds
    every rotation's energy at E[k*step + 1][k*step + n] (the doubling
    trick of circular folding with the span limit of windowed folding).
    With count = 1 the arc is q itself and this is the fill nussinov_table makes.
    """
    s = _text(q)
    n = len(s)
    if step < 1 or count < 1 or (count - 1) * step >= n:
        raise ValueError(f"rotations 0, {step}, ... ({count} of them) must stay below {n}")
    grid = _fill((s + s)[: n + (count - 1) * step], params or DEFAULT_ENERGY_PARAMS, n)
    return [grid[k * step + 1][k * step + n] for k in range(count)]


def min_free_energy(q: DnaSequence | str, params: EnergyParams | None = None) -> int:
    """Minimum energy of q over all non-crossing pairings, read off _fill's grid."""
    s = _text(q)
    return _fill(s, params or DEFAULT_ENERGY_PARAMS, len(s))[1][len(s)]


def min_free_energies(words, params: EnergyParams | None = None) -> list[int]:
    """[min_free_energy(q, params) for q in words], filled a length at a time.

    The words of one length n, if there are at least n of them, share one
    fill over packed ints (bit slicing, Biham 1997; SIMD within a register,
    Fisher & Dietz 1998): lane l of each int holds word l's score S = -E in
    b = bit_length(floor(n/2) * max(-at, -gc)) + 1 bits, the top one a guard
    bit. The fill is _fill's recursion in scores, over every k in every lane,

        S[i][j] = max(S[i][j-1],
                      max over i <= k < j of S[i][k-1] + S[k+1][j-1] + w(q_k, q_j)),

    with the pair weight w = -alpha read from one-hot base masks per
    position. It is exact in every lane. A pair's sum is the score of a
    structure within i..j. A non-pair adds 0, and its sum scores a
    structure within i..j-1, so it never beats S[i][j-1]. No sum exceeds
    the best structure's score, at most floor(n/2) pairs of the larger
    weight, so every sum fits below the guard bit and no lane carries into
    the next. The lane-wise max subtracts the best from the candidate with
    its guard bits set: a lane keeps its guard bit exactly where the
    candidate is at least the best, and only those lanes add the difference.

    A group costs ~n^3/6 packed operations against n sparse fills, so a
    group of fewer than n words keeps the sparse fill of min_free_energy.
    A larger group fills in blocks of at least max(LANE_BLOCK, n) lanes and
    fewer than twice that, so its rows, about lanes * b * n^2 / 16 bytes,
    stay bounded however many words there are; past about 2000 lanes the
    time per word hardly falls. energy_tables keeps every cell, in bytes.
    """
    params = params or DEFAULT_ENERGY_PARAMS

    def fill(group, n):
        if len(group) < n:
            return (min_free_energy(s, params) for s in group)
        blocks = max(1, len(group) // max(LANE_BLOCK, n))
        cuts = [b * len(group) // blocks for b in range(blocks + 1)]
        return (e for a, b in zip(cuts, cuts[1:]) for e in _lane_energies(group[a:b], n, params))

    return list(_by_length([_text(q) for q in words], fill))


def energy_tables(words, params: EnergyParams | None = None):
    """nussinov_table(q, params) for each q in words, in order, in chunks of
    at most LANE_BLOCK words. The n or more words of one length n in a chunk
    share a fill (see min_free_energies) in lanes of a byte if every score
    fits in 7 bits, floor(n/2) * max(-at, -gc) <= 127: a word's flat scores
    (see EnergyTable) are then a strided slice of the packed cells' bytes.
    Other words keep the sparse fill, made as they are reached."""
    params = params or DEFAULT_ENERGY_PARAMS

    def fill(group, n):
        if len(group) < n or n // 2 * max(-params.at, -params.gc) > 127:
            return (nussinov_table(s, params) for s in group)
        lanes, rows = len(group), _lane_rows(group, n, params, 7)
        cells = bytearray()
        for i in range(1, n + 1):  # each row dropped once its bytes are out
            cells += b"".join(c.to_bytes(lanes, "big") for c in rows[i])
            rows[i] = None
        return (EnergyTable(n, scores=cells[l::lanes]) for l in range(lanes))

    texts = [_text(q) for q in words]
    for start in range(0, len(texts), LANE_BLOCK):
        yield from _by_length(texts[start : start + LANE_BLOCK], fill)


def _by_length(texts: list[str], fill):
    """fill(group, n)'s values, one per word of each length n's group, in the order of texts."""
    groups: dict[int, list[str]] = {}
    for s in texts:
        groups.setdefault(len(s), []).append(s)
    values = {n: iter(fill(group, n)) for n, group in groups.items()}
    return (next(values[len(s)]) for s in texts)


def _lane_energies(texts: list[str], n: int, params: EnergyParams) -> list[int]:
    """E[1][n] of each of texts, all of length n, from a fill in the narrowest lanes."""
    bits = ((n // 2) * max(-params.at, -params.gc)).bit_length()  # below the guard bit
    width = bits + 1
    packed = format(_lane_rows(texts, n, params, bits)[1][n], f"0{len(texts) * width}b")
    return [-int(packed[p : p + width], 2) for p in range(0, len(packed), width)]


def _lane_rows(texts: list[str], n: int, params: EnergyParams, bits: int) -> list[list[int]]:
    """The rows (below) of one fill of texts, all of length n, in lanes of
    bits + 1 bits (see min_free_energies), word 0 in the highest lane."""
    at, gc = -params.at, -params.gc
    guard = int(("1" + "0" * bits) * len(texts), 2)
    # position p's bases, one per lane, "0" filling the bits above bit 0
    columns = [("0" * bits).join(column) for column in zip(*texts)]
    # one-hot base masks: bit 0 of lane l set where word l has the base at p
    a, c, g, t = (
        [0] + [int(column.translate(one_hot), 2) for column in columns]
        for one_hot in map(str.maketrans, ("ACGT",) * 4, ("1000", "0100", "0010", "0001"))
    )
    del columns  # n * lanes * (bits + 1) characters, not kept through the fill
    # rows[i][col - i + 1] = S[i][col] for col = i-1 .. the last column filled
    rows = [[0, 0] for _ in range(n + 1)]
    for j in range(2, n + 1):
        # terms[k] = S[k+1][j-1] + w(q_k, q_j), guard bits set
        terms = [0] + [
            rows[k + 1][j - 1 - k]
            + guard
            + at * (a[k] & t[j] | t[k] & a[j])
            + gc * (c[k] & g[j] | g[k] & c[j])
            for k in range(1, j)
        ]
        for i in range(1, j):
            row = rows[i]
            best = row[-1]  # S[i][j-1]
            for candidate in map(add, row, terms[i:]):  # row[k-i] = S[i][k-1]
                d = candidate - best
                kept = d & guard
                best += d & (kept - (kept >> bits))
            row.append(best)
    return rows


class SecondaryStructure(namedtuple("SecondaryStructure", "pairs energy")):
    """A frozenset of disjoint complementary pairings (1-based, i < j) and their energy."""

    __slots__ = ()

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)


def traceback(
    table: EnergyTable,
    q: DnaSequence | str,
    params: EnergyParams | None = None,
) -> SecondaryStructure:
    """Recover one minimum-energy structure from a filled table.

    Deterministic tie-breaking: pair the endpoints whenever that branch
    achieves the cell value with a strictly negative pairing energy,
    otherwise take the split with the smallest k. The summed pair energies
    always equal table.value(1, n).
    """
    params = params or DEFAULT_ENERGY_PARAMS
    s = _text(q)
    if table.n != len(s):
        raise ValueError(f"table size {table.n} does not match sequence length {len(s)}")
    alpha = params._alpha
    scores, offsets = table.scores, [_offset(table.n, i) for i in range(table.n + 1)]
    pairs = []
    stack = [(1, table.n)]
    while stack:
        i, j = stack.pop()
        if j <= i:
            continue
        e = scores[offsets[i] + j]
        a = alpha[s[i - 1] + s[j - 1]]
        if a < 0 and e == scores[offsets[i + 1] + j - 1] - a:
            pairs.append((i, j))
            stack.append((i + 1, j - 1))
            continue
        for k in range(i + 1, j + 1):
            if e == scores[offsets[i] + k - 1] + scores[offsets[k] + j]:
                stack.append((i, k - 1))
                stack.append((k, j))
                break
        else:
            raise ValueError("table is inconsistent with the sequence and parameters")
    energy = sum(alpha[s[i - 1] + s[j - 1]] for i, j in pairs)
    return SecondaryStructure(frozenset(pairs), energy)


def dot_bracket(structure: SecondaryStructure, n: int) -> str:
    """Render a structure as dots and matched parentheses."""
    chars = ["."] * n
    for i, j in structure.pairs:
        chars[i - 1] = "("
        chars[j - 1] = ")"
    return "".join(chars)


def has_structure(
    q: DnaSequence | str,
    params: EnergyParams | None = None,
    threshold: int = DEFAULT_STRUCTURE_THRESHOLD,
) -> bool:
    """Whether q folds at or below the energy threshold.

    The default threshold of -2 treats a single A-T pairing (energy -1) as
    too weak to count as a structure.
    """
    if threshold > 0:
        raise ValueError("threshold must be <= 0")
    params = params or DEFAULT_ENERGY_PARAMS
    if packed_energy_bound(*packed_image(q), len(q), params) > threshold:
        return False
    return min_free_energy(q, params) <= threshold


class LinearEnergyModel:
    """Weighted sum of pairing energies along the first few diagonals.

    kappa is a constant offset; gammas must be positive and non-increasing,
    one weight per shift distance starting at 1. offset and weights are
    kappa and the gammas times scale, their least common denominator.
    """

    __slots__ = ("kappa", "gammas", "scale", "offset", "weights")

    def __init__(self, kappa=0, gammas=(1,)):
        gammas = tuple(Fraction(g) for g in gammas)
        if not gammas:
            raise ValueError("at least one gamma weight is required")
        if any(g <= 0 for g in gammas):
            raise ValueError("gamma weights must be positive")
        if any(a < b for a, b in zip(gammas, gammas[1:])):
            raise ValueError("gamma weights must be non-increasing")
        self.kappa = Fraction(kappa)
        self.gammas = gammas
        self.scale = math.lcm(self.kappa.denominator, *(g.denominator for g in gammas))
        self.offset = int(self.kappa * self.scale)
        self.weights = tuple(int(g * self.scale) for g in gammas)

    @property
    def depth(self) -> int:
        return len(self.gammas)

    def __repr__(self) -> str:
        return f"LinearEnergyModel(kappa={self.kappa}, gammas={self.gammas})"


DEFAULT_LINEAR_MODEL = LinearEnergyModel(
    kappa=0, gammas=(1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
)


def packed_linear_energy(
    even: int, odd: int, n: int, model: LinearEnergyModel, params: EnergyParams
) -> Fraction:
    """Linear score of the word with packed image (even, odd) and length n.

    Returns kappa + sum over the shift distances d < n that the model has of
    gamma_d times the summed pairing energies alpha(q_i, q_{i+d}); a word
    shorter than the model reads only the diagonals it has.

    alpha is nonzero only on complementary pairs: the set bits of match =
    ~(E ^ E>>d) & (O ^ O>>d) & mask(n-d), as in seqcore.packed_mu. Both bases
    of such a pair share their even bit, so the G-C pairs are those in E.
    The sum runs in ints, over the model's common denominator.
    """
    total = model.offset
    for d, weight in zip(range(1, n), model.weights):
        match = ~(even ^ even >> d) & (odd ^ odd >> d) & ((1 << n - d) - 1)
        gc = (match & even).bit_count()
        total += weight * (params.at * (match.bit_count() - gc) + params.gc * gc)
    return Fraction(total, model.scale)


def packed_energy_bound(even: int, odd: int, n: int, params: EnergyParams) -> int:
    """Lower bound on the minimum free energy of the word with packed image
    (even, odd) and length n: at * min(#A, #T) + gc * min(#C, #G).

    Every pair is A-T or C-G, so no structure has more of them than that.
    G is the base with both bits set, C has the even bit alone and T the
    odd bit alone. A word whose bound is above a threshold cannot fold at
    or below it, so screen and has_structure skip its fill; what they
    report does not change.
    """
    g = (even & odd).bit_count()
    c = even.bit_count() - g
    t = odd.bit_count() - g
    return params.at * min(n - g - c - t, t) + params.gc * min(c, g)


def linear_energy(
    q: DnaSequence | str,
    model: LinearEnergyModel | None = None,
    params: EnergyParams | None = None,
) -> Fraction:
    """Approximate folding score from the first model.depth shift diagonals.

    Returns kappa + sum over shift distances d of gamma_d times the summed
    pairing energies alpha(q_i, q_{i+d}) (see packed_linear_energy). With a
    single unit weight this is the plain adjacent-pair sum; with unit alpha
    on complementary pairs the d-th inner sum is minus the shift-match count
    mu(q, d). The model must be shallower than q is long.
    """
    model = model or DEFAULT_LINEAR_MODEL
    n = len(q)
    if model.depth >= n:
        raise ValueError(f"model depth {model.depth} requires length > {model.depth}")
    return packed_linear_energy(*packed_image(q), n, model, params or DEFAULT_ENERGY_PARAMS)


def format_table_text(q: DnaSequence | str, table: EnergyTable) -> str:
    """Pretty-print a table with base labels and '*' below the boundary.

    A filled table's cells lie between E[1][n] and 0, so every column is as
    wide as str(E[1][n]); labels and '*' are one character. Each value that
    occurs is padded once.
    """
    s = _text(q)
    width = len(str(table.min_free_energy))
    rows = list(map(table.row, range(1, table.n + 1)))
    cell = {v: str(v).rjust(width) for v in set().union(*rows)}
    gap = " " * width
    star = gap[1:] + "* "
    lines = [gap + gap.join(s)]
    for i, (base, row) in enumerate(zip(s, rows), 1):
        lines.append(base + star * (i - 2) + " ".join(map(cell.__getitem__, row)))
    return "\n".join(lines)


def format_table_csv(q: DnaSequence | str, table: EnergyTable) -> str:
    """Same layout as the text table, comma-separated."""
    s = _text(q)
    lines = ["," + ",".join(s)]
    for base, row in zip(s, table.cells()):
        lines.append(base + "," + ",".join(map(str, row)))
    return "\n".join(lines)
