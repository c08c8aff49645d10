"""Minimum-free-energy folding prediction for DNA words.

The predictor fills a table E[i][j] holding the minimum energy of any
non-crossing set of complementary pairings within positions i..j, using
per-pair energies (A-T and G-C only), with position j either unpaired or
paired to a complementary partner. All energies are exact integers; the
simpler screening score in ``linear_energy`` uses exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .seqcore import DnaSequence, _text, packed_image

DEFAULT_STRUCTURE_THRESHOLD = -2


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
    the table.
    """

    __slots__ = ("n", "_grid")

    def __init__(self, n: int, grid: list[list[int]]):
        self.n = n
        self._grid = grid

    def value(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and j <= self.n and j >= i - 1 and j >= 1):
            raise IndexError(f"no entry ({i},{j}) in a table of size {self.n}")
        return self._grid[i][j]

    def cells(self) -> list[list[int | str]]:
        """The n x n grid: cells()[i-1][j-1] is value(i, j), or '*' below j = i-1."""
        n, grid = self.n, self._grid
        return [
            [grid[i][j] if j >= i - 1 else "*" for j in range(1, n + 1)] for i in range(1, n + 1)
        ]

    @property
    def min_free_energy(self) -> int:
        """E[1][n], the minimum energy over the whole sequence."""
        return self._grid[1][self.n]


def _fill(s: str, params: EnergyParams, span: int) -> list[list[int]]:
    """Energy grid of s, filled only where j - i < span.

    Diagonal and first sub-diagonal start at zero. Each remaining cell
    leaves j unpaired or pairs it with some partner k, i <= k < j:

        E[i][j] = min(E[i][j-1],
                      min over k with alpha(q_k, q_j) < 0 of
                          E[i][k-1] + (E[k+1][j-1] + alpha(q_k, q_j)))

    Rows run from i = n-1 down to 1 and j runs upward. The bracketed term
    is fixed once row k+1 is filled, so it joins column j's candidate list
    when row k is reached, and each cell scans only the complementary
    partners of j (about a quarter of the positions). A cell within the
    span reads only cells within it, and a candidate is read only by rows
    i >= j - span + 1, so row k appends partners j < k + span alone.
    """
    n = len(s)
    alpha = params._alpha
    # positions j (descending) that pair with base x, and the pair energy
    partners = {
        x: [(j, a) for j in range(n, 0, -1) if (a := alpha[x + s[j - 1]]) < 0]
        for x in set(s)
    }
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    candidates = [[] for _ in range(n + 1)]  # column j: (k-1, E[k+1][j-1] + alpha)
    for i in range(n - 1, 0, -1):
        row = grid[i]
        below = grid[i + 1]
        end = i + span  # columns i+1 .. end-1 are filled
        if end > n:
            end = n + 1
        for j, a in partners[s[i - 1]]:
            if j <= i:
                break
            if j < end:
                candidates[j].append((i - 1, below[j - 1] + a))
        best = 0  # E[i][i]
        for j in range(i + 1, end):
            for left, c in candidates[j]:
                c += row[left]
                if c < best:
                    best = c
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
    """Minimum energy of q over all non-crossing complementary pairings."""
    return nussinov_table(q, params).min_free_energy


@dataclass(frozen=True)
class SecondaryStructure:
    """Disjoint complementary pairings (1-based, i < j) and their energy."""

    pairs: frozenset[tuple[int, int]]
    energy: int

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
    grid = table._grid
    pairs = []
    stack = [(1, table.n)]
    while stack:
        i, j = stack.pop()
        if j <= i:
            continue
        e = grid[i][j]
        a = alpha[s[i - 1] + s[j - 1]]
        if a < 0 and e == grid[i + 1][j - 1] + a:
            pairs.append((i, j))
            stack.append((i + 1, j - 1))
            continue
        for k in range(i + 1, j + 1):
            if e == grid[i][k - 1] + grid[k][j]:
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
    return min_free_energy(q, params) <= threshold


class LinearEnergyModel:
    """Weighted sum of pairing energies along the first few diagonals.

    kappa is a constant offset; gammas must be positive and non-increasing,
    one weight per shift distance starting at 1.
    """

    __slots__ = ("kappa", "gammas")

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
    """
    total = model.kappa
    for d, gamma in zip(range(1, n), model.gammas):
        match = ~(even ^ even >> d) & (odd ^ odd >> d) & ((1 << n - d) - 1)
        gc = (match & even).bit_count()
        total += gamma * (params.at * (match.bit_count() - gc) + params.gc * gc)
    return total


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
    """Pretty-print a table with base labels and '*' below the boundary."""
    s = _text(q)
    cells = [[str(c) for c in row] for row in table.cells()]
    width = max(max(len(c) for row in cells for c in row), 1)
    header = " " + " ".join(b.rjust(width) for b in s)
    lines = [header]
    for base, row in zip(s, cells):
        lines.append(base + " ".join(c.rjust(width) for c in row))
    return "\n".join(lines)


def format_table_csv(q: DnaSequence | str, table: EnergyTable) -> str:
    """Same layout as the text table, comma-separated."""
    s = _text(q)
    lines = ["," + ",".join(s)]
    for base, row in zip(s, table.cells()):
        lines.append(base + "," + ",".join(map(str, row)))
    return "\n".join(lines)
