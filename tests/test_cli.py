import json
import math
import random
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oligoforge import cli, enumeration, folding
from oligoforge.codegen import build_dna_code, simplex_code
from oligoforge.seqcore import gc_content, mu, packed_image

import oracles
from fixtures import TABLE_1, TABLE_2, TABLE_SEQ_1, TABLE_SEQ_2


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def parse_rendered_table(block_lines):
    """Token matrix of a rendered text table (rows of cell strings)."""
    rows = []
    for line in block_lines:
        tokens = line.split()
        rows.append(tokens[1:])
    return rows


def seeded_words(letters, n, count):
    rng = random.Random(16)
    return ["".join(rng.choices(letters, k=n)) for _ in range(count)]


def fold_records(words, threshold=-2, params=None):
    """The records fold --format json writes, built apart from its writer."""
    records = []
    for word in words:
        table = folding.nussinov_table(word, params)
        structure = folding.traceback(table, word, params)
        energy = table.min_free_energy
        records.append(
            {
                "sequence": word.upper(),
                "min_free_energy": energy,
                "has_structure": energy <= threshold,
                "threshold": threshold,
                "pairs": [list(p) for p in structure.sorted_pairs()],
                "dot_bracket": folding.dot_bracket(structure, table.n),
                "table": [
                    [table.value(i, j) if j >= i - 1 else "*" for j in range(1, table.n + 1)]
                    for i in range(1, table.n + 1)
                ],
            }
        )
    return records


class TestFold:
    def run_fold(self, tmp_path, capsys, lines, *extra):
        path = tmp_path / "in.txt"
        write_lines(path, lines)
        rc = cli.main(["fold", "--input", str(path), *extra])
        return rc, capsys.readouterr()

    def test_reference_tables_entrywise(self, tmp_path, capsys):
        rc, captured = self.run_fold(tmp_path, capsys, [TABLE_SEQ_1, TABLE_SEQ_2])
        assert rc == 0
        blocks = captured.out.strip().split("\n\n")
        assert len(blocks) == 2
        for block, expected_seq, expected in (
            (blocks[0], TABLE_SEQ_1, TABLE_1),
            (blocks[1], TABLE_SEQ_2, TABLE_2),
        ):
            lines = block.splitlines()
            assert lines[0] == f"sequence: {expected_seq}"
            table_lines = lines[5:]  # header + 9 rows
            assert table_lines[0].split() == list(expected_seq)
            rows = parse_rendered_table(table_lines[1:])
            want = [["*" if v is None else str(v) for v in row] for row in expected]
            assert rows == want

    def test_energies_and_verdicts(self, tmp_path, capsys):
        rc, captured = self.run_fold(tmp_path, capsys, [TABLE_SEQ_1, TABLE_SEQ_2])
        assert rc == 0
        assert "min_free_energy: -6" in captured.out
        assert "min_free_energy: -1" in captured.out
        assert "has_structure: yes (threshold -2)" in captured.out
        assert "has_structure: no (threshold -2)" in captured.out

    def test_empty_file(self, tmp_path, capsys):
        rc, captured = self.run_fold(tmp_path, capsys, [])
        assert rc == 0
        assert captured.out == ""

    def test_parse_error_reports_line(self, tmp_path, capsys):
        rc, captured = self.run_fold(tmp_path, capsys, ["ACGT", "ACXT"])
        assert rc == 2
        assert ":2:" in captured.err

    def test_missing_input_is_usage_error(self, capsys):
        rc = cli.main(["fold"])
        assert rc == 1

    def test_unreadable_input(self, tmp_path, capsys):
        rc = cli.main(["fold", "--input", str(tmp_path / "missing.txt")])
        assert rc == 2

    def test_csv_format(self, tmp_path, capsys):
        rc, captured = self.run_fold(tmp_path, capsys, [TABLE_SEQ_1], "--format", "csv")
        assert rc == 0
        lines = captured.out.splitlines()
        assert lines[0] == f"sequence,{TABLE_SEQ_1}"
        assert lines[1] == "min_free_energy,-6"
        header_idx = lines.index("," + ",".join(TABLE_SEQ_1))
        first_row = lines[header_idx + 1].split(",")
        assert first_row == ["G", "0", "-2", "-2", "-4", "-4", "-4", "-4", "-6", "-6"]

    def test_json_format(self, tmp_path, capsys):
        rc, captured = self.run_fold(tmp_path, capsys, [TABLE_SEQ_2], "--format", "json")
        assert rc == 0
        records = json.loads(captured.out)
        assert records[0]["sequence"] == TABLE_SEQ_2
        assert records[0]["min_free_energy"] == -1
        assert records[0]["has_structure"] is False

    def test_json_bytes_match_whole_list_dump(self, tmp_path, capsys):
        for words in ([], [TABLE_SEQ_2], [TABLE_SEQ_1, TABLE_SEQ_2, "C"]):
            rc, captured = self.run_fold(tmp_path, capsys, words, "--format", "json")
            assert rc == 0
            records = fold_records(words)
            assert captured.out == json.dumps(records, indent=2) + "\n"

    @settings(deadline=None)
    @given(
        words=st.lists(st.text(alphabet="ACGTacgt", min_size=1, max_size=30), max_size=6),
        threshold=st.integers(min_value=-40, max_value=0),
        at=st.integers(min_value=-3, max_value=0),
        gc=st.integers(min_value=-3, max_value=0),
    )
    def test_json_bytes_match_json_dumps_on_random_pools(self, words, threshold, at, gc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.txt"
            out = Path(tmp) / "out.json"
            write_lines(path, words)
            argv = ["fold", "--input", str(path), "--format", "json", "--output", str(out),
                    "--threshold", str(threshold), "--at-energy", str(at), "--gc-energy", str(gc)]
            assert cli.main(argv) == 0
            records = fold_records(words, threshold, folding.EnergyParams(at=at, gc=gc))
            assert out.read_text() == json.dumps(records, indent=2) + "\n"

    # (words, pair energies, whether they share a byte-lane fill): lengths 1-3
    # and 30 with n words each; n words whose scores may need 8 bits (n/2
    # G-C pairs of 20, from n = 14) and a word alone fall back to the sparse fill
    TEMPLATE_POOLS = [
        pytest.param([], (-1, -2), False, id="empty"),
        pytest.param(["G"], (-1, -2), True, id="n1"),
        pytest.param(["GC", "at"], (-1, -2), True, id="n2"),
        pytest.param(["GCA", "TTA", "CGG"], (-1, -2), True, id="n3"),
        pytest.param(seeded_words("ACGT", 30, 30), (-1, -2), True, id="n30"),
        pytest.param(seeded_words("GC", 30, 30), (-1, -20), False, id="n30-8bit"),
        pytest.param(seeded_words("GC", 14, 14), (-1, -20), False, id="n14-8bit"),
        pytest.param(["GCATGC"], (-1, -2), False, id="alone"),
    ]

    @pytest.mark.parametrize("words,energies,lanes", TEMPLATE_POOLS)
    def test_json_template_matches_json_dumps(self, tmp_path, monkeypatch, words, energies, lanes):
        lane_rows, lengths = folding._lane_rows, []

        def spy(texts, n, params, bits):
            lengths.append((n, bits))
            return lane_rows(texts, n, params, bits)

        monkeypatch.setattr(folding, "_lane_rows", spy)
        path, out = tmp_path / "in.txt", tmp_path / "out.json"
        write_lines(path, words)
        at, gc = energies
        argv = ["fold", "--input", str(path), "--format", "json", "--output", str(out),
                "--at-energy", str(at), "--gc-energy", str(gc)]
        assert cli.main(argv) == 0
        records = fold_records(words, params=folding.EnergyParams(at, gc))
        assert out.read_text() == json.dumps(records, indent=2) + "\n"
        assert lengths == ([(len(words[0]), 7)] if lanes else [])

    @staticmethod
    def fold_outputs(words, at, gc):
        """fold's output in json, text and csv on words."""
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "in.txt", Path(tmp) / "out"
            write_lines(path, words)
            outputs = []
            for form in ("json", "text", "csv"):
                argv = ["fold", "--input", str(path), "--format", form, "--output", str(out),
                        "--at-energy", str(at), "--gc-energy", str(gc)]
                assert cli.main(argv) == 0
                outputs.append(out.read_text())
            return outputs

    # pools of mixed lengths 1-14 and 30, from no words of a length to twice
    # the length, some of G and C alone; chunks of a few words, so a group
    # spans several; with a G-C weight of 20, lengths from 14 may need more
    # than 7 bits, and G-C words of length 14 do
    @settings(deadline=None, max_examples=40)
    @given(
        energies=st.sampled_from([(-1, -2), (-3, -1), (0, 0), (-1, -20)]),
        block=st.integers(min_value=1, max_value=64),
        data=st.data(),
    )
    def test_lane_route_matches_per_word_sparse_route(self, energies, block, data):
        words = []
        for n in data.draw(st.sets(st.one_of(st.integers(1, 14), st.just(30)), max_size=4)):
            count = data.draw(st.integers(min_value=0, max_value=2 * n))
            word = st.text(data.draw(st.sampled_from(["ACGT", "GC"])), min_size=n, max_size=n)
            words += data.draw(st.lists(word, min_size=count, max_size=count))
        words = data.draw(st.permutations(words))
        params = folding.EnergyParams(*energies)
        sparse = [folding.nussinov_table(w, params) for w in words]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(folding, "LANE_BLOCK", block)
            tables = list(folding.energy_tables(words, params))
            outputs = self.fold_outputs(words, *energies)
        assert len(tables) == len(words)
        for word, table, reference in zip(words, tables, sparse):
            n = len(word)
            assert table.n == n
            for i in range(1, n + 1):
                for j in range(max(1, i - 1), n + 1):
                    assert table.value(i, j) == reference.value(i, j), (word, i, j)
            assert folding.traceback(table, word, params) == folding.traceback(reference, word, params)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(folding, "energy_tables", lambda words, params: map(folding.nussinov_table, words, [params] * len(words)))
            assert self.fold_outputs(words, *energies) == outputs

    def test_non_ascii_byte_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        path.write_bytes(b"ACGT\nAC\xc3\xa9T\n")
        rc = cli.main(["fold", "--input", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{path}:2:" in err
        assert "non-ASCII byte 0xc3 at position 3" in err

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        out = tmp_path / "out.txt"
        write_lines(path, [TABLE_SEQ_1])
        rc = cli.main(["fold", "--input", str(path), "--output", str(out)])
        assert rc == 0
        assert "min_free_energy: -6" in out.read_text()

    def test_unsupported_format(self, tmp_path, capsys):
        rc, _ = self.run_fold(tmp_path, capsys, [TABLE_SEQ_1], "--format", "tsv")
        assert rc == 1


class TestScreen:
    def test_code_passes_mu_constraint(self, tmp_path, capsys):
        code = build_dna_code(simplex_code(3))
        path = tmp_path / "code.txt"
        write_lines(path, [w.text for w in code.codewords])
        rc = cli.main(["screen", "--input", str(path), "--max-mu", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert len(captured.out.splitlines()) == 49
        assert captured.err == ""

    def test_energy_rejection(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        write_lines(path, [TABLE_SEQ_1])
        rc = cli.main(["screen", "--input", str(path), "--threshold", "-2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == ""
        assert "energy -6" in captured.err

    def test_gc_range_rejection(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        write_lines(path, ["AAAA"])
        rc = cli.main(["screen", "--input", str(path), "--gc-min", "3", "--gc-max", "4"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "GC 0" in captured.err

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_empty_gc_range_is_usage_error(self, tmp_path, capsys, route):
        path = tmp_path / "in.txt"
        write_lines(path, ["ACGTAC", "GGGCCC"])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gc_min=5\ngc_max=2\n")
        extra = ["--gc-min", "5", "--gc-max", "2"] if route == "flag" else ["--config", str(cfg)]
        assert cli.main(["screen", "--input", str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--gc-min 5 exceeds --gc-max 2" in captured.err
        if route == "config":
            assert "--gc-min 5 exceeds --gc-max 2 (config keys gc_min, gc_max)" in captured.err
        else:
            assert "config key" not in captured.err

    # the config keys a config-sourced message names, by message
    CONFIG_KEYS = {"--gc-min 5 exceeds -w 3": "gc_min, w", "-w 9 exceeds --gc-max 5": "w, gc_max"}

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("limits,message", [
        ({"w": 3, "gc_min": 5}, "--gc-min 5 exceeds -w 3"),
        ({"w": 9, "gc_max": 5}, "-w 9 exceeds --gc-max 5"),
    ])
    def test_w_outside_gc_range_is_usage_error(self, tmp_path, capsys, route, limits, message):
        path = tmp_path / "in.txt"
        write_lines(path, ["ACGTAC", "GGGCCC"])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{dest}={value}\n" for dest, value in limits.items()))
        if route == "flag":
            extra = [a for dest, value in limits.items() for a in (cli.OPTIONS[dest][0][0], str(value))]
        else:
            extra = ["--config", str(cfg)]
        assert cli.main(["screen", "--input", str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        if route == "config":
            assert f"{message} (config keys {self.CONFIG_KEYS[message]})" in captured.err
        else:
            assert "config key" not in captured.err

    def test_gc_range_names_only_the_config_key_it_read(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        write_lines(path, ["ACGTAC"])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gc_min=5\n")
        assert cli.main(["screen", "--input", str(path), "--config", str(cfg), "-w", "3"]) == 1
        err = capsys.readouterr().err
        assert "--gc-min 5 exceeds -w 3 (config key gc_min)" in err

    def test_mu_rejection_names_shift(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        write_lines(path, ["ATAT"])
        rc = cli.main(["screen", "--input", str(path), "-s", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "mu_1 3" in captured.err

    def test_log_file(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        log = tmp_path / "rejects.log"
        out = tmp_path / "accepted.txt"
        write_lines(path, ["GGGAGAA", "ATAT"])
        rc = cli.main(
            ["screen", "--input", str(path), "-s", "2", "--log", str(log), "--output", str(out)]
        )
        assert rc == 0
        assert out.read_text() == "GGGAGAA\n"
        assert "ATAT\trejected\tmu_1 3" in log.read_text()

    def test_approx_threshold(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        write_lines(path, ["GCGC"])
        rc = cli.main(["screen", "--input", str(path), "--approx-threshold", "-1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "approx_energy" in captured.err

    def test_zero_denominator_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        write_lines(path, ["GCGC"])
        rc = cli.main(["screen", "--input", str(path), "--approx-threshold", "1/0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("oligoforge: error: argument --approx-threshold")

    @pytest.mark.parametrize("joined", [False, True])
    @pytest.mark.parametrize("value,kept", [("-5/2", False), ("-15/2", True)])
    def test_negative_fraction_threshold(self, tmp_path, capsys, joined, value, kept):
        # GCGC scores -6 - 1/2: three G-C pairs at shift 1 and one at shift 3
        path = tmp_path / "in.txt"
        write_lines(path, ["GCGC"])
        flag = [f"--approx-threshold={value}"] if joined else ["--approx-threshold", value]
        rc = cli.main(["screen", "--input", str(path), *flag])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == ("GCGC\n" if kept else "")
        assert captured.err == ("" if kept else "GCGC\trejected\tapprox_energy -13/2\n")

    @pytest.mark.parametrize("command", ["fold", "screen"])
    def test_positive_threshold_is_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "in.txt"
        write_lines(path, ["GCGC"])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threshold=5\n")
        assert cli.main([command, "--input", str(path), "--threshold", "5"]) == 1
        assert "threshold must be <= 0, got 5" in capsys.readouterr().err
        assert cli.main([command, "--input", str(path), "--config", str(cfg)]) == 1
        assert "config value '5' is invalid for threshold" in capsys.readouterr().err
        assert cli.main([command, "--input", str(path), "--threshold", "0"]) == 0

    @settings(deadline=None)
    @given(
        words=st.lists(st.text(alphabet="ACGT", min_size=1, max_size=30), max_size=12),
        limits=st.fixed_dictionaries({}, optional={
            "w": st.integers(0, 30),
            "gc_min": st.integers(0, 30),
            "gc_max": st.integers(0, 30),
            "s": st.integers(1, 6),
            "max_mu": st.integers(0, 5),
            "threshold": st.integers(-10, 0),
            # halves, so that scores (multiples of 1/8) often meet the threshold
            "approx_threshold": st.integers(-20, 2).map(lambda k: Fraction(k, 2)),
            "at_energy": st.integers(-3, 0),
            "gc_energy": st.integers(-3, 0),
        }),
    )
    def test_matches_per_word_reference(self, words, limits):
        expected = screen_reference(words, limits)
        with tempfile.TemporaryDirectory() as tmp:
            path, out, log = (Path(tmp) / name for name in ("in.txt", "kept.txt", "log.txt"))
            write_lines(path, words)
            argv = ["screen", "--input", str(path), "--output", str(out), "--log", str(log)]
            for dest, value in limits.items():
                argv += [cli.OPTIONS[dest][0][0], str(value)]
            rc = cli.main(argv)
            if expected is None:
                assert rc == 1 and not out.exists() and not log.exists()
            else:
                assert rc == 0
                assert (out.read_text(), log.read_text()) == expected

    # the benchmark pool's limits; other limits and pair energies; zero pair
    # energies, where every word's bound is the threshold 0 and every word folds
    SEEDED_LIMITS = [
        {"gc_min": 6, "gc_max": 18, "s": 2, "max_mu": 8, "threshold": -14, "approx_threshold": -12},
        {"gc_min": 4, "s": 1, "max_mu": 5, "threshold": -20, "at_energy": -2, "gc_energy": -3},
        {"at_energy": 0, "gc_energy": 0, "threshold": 0},
    ]

    # a length n with at least n words to fold shares one lane fill, one
    # with fewer takes a sparse fill per word; each 1500-word pool has a lane fill
    @pytest.mark.parametrize("limits,size", [
        *(pytest.param(limits, 300, id=f"limits{i}") for i, limits in enumerate(SEEDED_LIMITS)),
        *(pytest.param(limits, 1500, id=f"limits{i}-1500") for i, limits in enumerate(SEEDED_LIMITS)),
    ])
    def test_seeded_pool_matches_reference_that_always_folds(
        self, tmp_path, monkeypatch, limits, size
    ):
        rng = random.Random(20)
        words = ["".join(rng.choices("ACGT", k=rng.randint(14, 30))) for _ in range(size)]
        expected = screen_reference(words, limits)
        lane_fill, lane_lengths = folding._lane_energies, []

        def spy(texts, n, params):
            lane_lengths.append(n)
            return lane_fill(texts, n, params)

        monkeypatch.setattr(folding, "_lane_energies", spy)
        path, out, log = (tmp_path / name for name in ("in.txt", "kept.txt", "log.txt"))
        write_lines(path, words)
        argv = ["screen", "--input", str(path), "--output", str(out), "--log", str(log)]
        for dest, value in limits.items():
            argv += [cli.OPTIONS[dest][0][0], str(value)]
        assert cli.main(argv) == 0
        assert (out.read_text(), log.read_text()) == expected
        # words reach the energy test on both sides of the bound (only on the
        # threshold with zero energies), and some fold at or below it
        reasons = dict(line.split("\trejected\t") for line in expected[1].splitlines())
        reached = [w for w in words if not reasons.get(w, "").startswith(("GC", "mu"))]
        params = folding.EnergyParams(limits.get("at_energy", -1), limits.get("gc_energy", -2))
        bounds = [folding.packed_energy_bound(*packed_image(w), len(w), params) for w in reached]
        settled = sum(bound > limits["threshold"] for bound in bounds)
        assert 0 < settled < len(bounds) if limits["threshold"] < 0 else settled == 0
        assert any(reason.startswith("energy") for reason in reasons.values())
        folded = Counter(len(w) for w, bound in zip(reached, bounds) if bound <= limits["threshold"])
        assert sorted(lane_lengths) == sorted(n for n, count in folded.items() if count >= n)
        assert size == 300 or lane_lengths


def screen_reference(words, limits):
    """screen's (kept, log) text, checked word by word on the characters, or
    None when no GC-content meets every GC limit."""
    w, gc_min, gc_max = (limits.get(k) for k in ("w", "gc_min", "gc_max"))
    s, max_mu = limits.get("s"), limits.get("max_mu")
    threshold, approx = limits.get("threshold"), limits.get("approx_threshold")
    params = folding.EnergyParams(limits.get("at_energy", -1), limits.get("gc_energy", -2))
    model = folding.DEFAULT_LINEAR_MODEL

    def gc_ok(gc):
        return (
            (w is None or gc == w)
            and (gc_min is None or gc >= gc_min)
            and (gc_max is None or gc <= gc_max)
        )

    def reason(word):
        gc = gc_content(word)
        if not gc_ok(gc):
            return f"GC {gc}"
        if s is not None or max_mu is not None:
            depth = min(s if s is not None else len(word) - 1, len(word) - 1)
            for i in range(1, depth + 1):
                v = mu(word, i)
                if v > (max_mu if max_mu is not None else 0):
                    return f"mu_{i} {v}"
        if threshold is not None:
            energy = folding.min_free_energy(word, params)
            if energy <= threshold:
                return f"energy {energy}"
        if approx is not None:
            usable = min(model.depth, len(word) - 1)
            if usable == 0:
                score = model.kappa
            else:
                clamped = folding.LinearEnergyModel(model.kappa, model.gammas[:usable])
                score = folding.linear_energy(word, clamped, params)
            if score <= approx:
                return f"approx_energy {score}"
        return None

    if not any(gc_ok(gc) for gc in range(32)):
        return None
    kept, log = [], []
    for word in words:
        why = reason(word)
        if why is None:
            kept.append(word + "\n")
        else:
            log.append(f"{word}\trejected\t{why}\n")
    return "".join(kept), "".join(log)


class TestEnumerate:
    def test_depth_two_table(self, capsys):
        rc = cli.main(["enumerate", "-s", "2", "-n", "5"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        assert lines[0] == "n\tg_s(n)"
        assert lines[1:] == ["1\t4", "2\t12", "3\t28", "4\t68", "5\t164"]

    def test_oracle_column(self, capsys):
        rc = cli.main(["enumerate", "-s", "2", "-n", "4", "--oracle"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        assert lines[0] == "n\tg_s(n)\toracle\tmatch"
        assert all(line.endswith("\tok") for line in lines[1:])

    def test_oracle_cap_exceeded(self, capsys, monkeypatch):
        monkeypatch.setenv("OLIGOFORGE_ORACLE_CAP", "3")
        rc = cli.main(["enumerate", "-s", "1", "-n", "4", "--oracle"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the cap of 3" in captured.err

    @pytest.mark.parametrize("argv", [
        ["enumerate", "-s", "1", "-n", "5"],
        ["count", "--mu1", "-n", "5"],
        ["count", "--gc", "-n", "5"],
        ["count", "--gc", "-n", "5", "-w", "2"],
    ])
    @pytest.mark.parametrize("cap", ["3", "zero"])
    def test_oracle_cap_checked_before_any_output(self, tmp_path, capsys, monkeypatch, argv, cap):
        monkeypatch.setenv("OLIGOFORGE_ORACLE_CAP", cap)
        out = tmp_path / "t.tsv"
        assert cli.main([*argv, "--oracle", "--output", str(out)]) == 1
        assert not out.exists()
        assert cli.main([*argv, "--oracle"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("exceeds the cap of 3" if cap == "3" else "must be an integer") in captured.err

    def test_default_cap_refuses_before_the_first_row(self, capsys, monkeypatch):
        # rows 1-12 alone would walk 22M words
        monkeypatch.delenv("OLIGOFORGE_ORACLE_CAP", raising=False)
        assert cli.main(["enumerate", "-s", "1", "-n", "13", "--oracle"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the cap of 12" in captured.err

    def test_env_cap_allows_within_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("OLIGOFORGE_ORACLE_CAP", "3")
        rc = cli.main(["enumerate", "-s", "1", "-n", "3", "--oracle"])
        assert rc == 0


class TestGf:
    def test_report(self, capsys):
        rc = cli.main(["gf", "-s", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = dict(line.split(": ") for line in captured.out.splitlines())
        assert lines["s"] == "2"
        assert abs(float(lines["rho"]) - (1 + math.sqrt(2))) < 1e-9
        assert abs(float(lines["residual"])) < 1e-9

    def test_nan_tolerance_is_usage_error(self, capsys):
        assert cli.main(["gf", "-s", "2", "--tol", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be positive" in captured.err

    @pytest.mark.parametrize("tol", ["1", "inf"])
    def test_tolerance_of_bracket_width_is_usage_error(self, capsys, tol):
        assert cli.main(["gf", "-s", "2", "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be below 1" in captured.err


class TestCount:
    def test_mu1_table(self, capsys):
        rc = cli.main(["count", "--mu1", "-n", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.splitlines() == ["m\tcount", "0\t12", "1\t4"]

    def test_gc_table(self, capsys):
        rc = cli.main(["count", "--gc", "-n", "2"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "2\t1\t8" in captured.out.splitlines()

    def test_gc_table_with_w_filter(self, capsys):
        rc = cli.main(["count", "--gc", "-n", "3", "-w", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()[1:]
        assert all(line.split("\t")[1] == "1" for line in lines)

    def test_oracle_columns(self, capsys):
        rc = cli.main(["count", "--mu1", "-n", "4", "--oracle"])
        captured = capsys.readouterr()
        assert rc == 0
        assert all(line.endswith("\tok") for line in captured.out.splitlines()[1:])

    @pytest.mark.parametrize("w", [None, 2])
    def test_gc_oracle_tests_each_word_once_per_length(self, capsys, monkeypatch, w):
        calls = {}
        real = enumeration.mu_zero_predicate

        def counted_mu_zero(s):
            stage = real(s)

            def predicate(even, n):
                calls.setdefault(n, []).append(even)
                return stage(even, n)

            return predicate

        monkeypatch.setattr(enumeration, "mu_zero_predicate", counted_mu_zero)
        argv = ["count", "--gc", "-n", "6", "--oracle"] + ([] if w is None else ["-w", str(w)])
        assert cli.main(argv) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        oracle = {(int(n), int(gc)): int(count) for n, gc, _, count, _ in rows}
        for n in range(1, 7):
            census = oracles.census_mu1zero_by_gc(n)
            weights = range(n + 1) if w is None else [w] if w <= n else []
            assert {gc: oracle[n, gc] for gc in weights} == {gc: census.get(gc, 0) for gc in weights}
            # each row runs the stage once on each even image of its weight,
            # whose mask tests all 2^n odd images: comb(n, w) calls a row
            evens = calls.get(n, [])
            assert sorted(evens) == [e for e in range(2**n) if e.bit_count() in weights]
            assert len(evens) == sum(math.comb(n, gc) for gc in weights)
            if w is None:
                assert len(evens) == 2**n

    def test_requires_exactly_one_mode(self, capsys):
        assert cli.main(["count", "-n", "3"]) == 1
        assert cli.main(["count", "--mu1", "--gc", "-n", "3"]) == 1

    @pytest.mark.parametrize("argv", [
        ["--gc", "-n", "3", "-w", "9"],  # no word of length 3 has GC 9
        ["--mu1", "-n", "4", "-w", "2"],  # the shift-1 table has no GC column
    ])
    def test_w_without_a_gc_row_is_usage_error(self, capsys, argv):
        assert cli.main(["count", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "-w is a GC-content of count --gc" in captured.err


class TestConstruct:
    def test_reference_construction(self, tmp_path, capsys):
        out = tmp_path / "code.txt"
        rc = cli.main(
            ["construct", "-m", "3", "--generator", "1110100", "--output", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 0
        words = out.read_text().splitlines()
        assert len(words) == 49
        assert "TGGCTCA" in words
        assert "GGGAGAA" in words
        meta = json.loads((tmp_path / "code.txt.meta.json").read_text())
        assert meta["m"] == 3
        assert meta["generator"] == "1110100"
        assert meta["size"] == 49
        assert meta["min_hamming_distance"] == 4
        assert meta["gc_content"] == 4
        assert meta["max_mu"] == 2
        assert meta["mu_bound"] == 2
        assert len(meta["energies"]) == 49
        assert "verdict: PASS" in captured.out

    def test_invalid_generator(self, tmp_path, capsys):
        rc = cli.main(
            ["construct", "-m", "3", "--generator", "1111111", "--output", str(tmp_path / "x.txt")]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert "weight 7" in captured.err

    def test_m2_code(self, tmp_path, capsys):
        out = tmp_path / "m2.txt"
        rc = cli.main(["construct", "-m", "2", "--output", str(out)])
        assert rc == 0
        words = out.read_text().splitlines()
        assert len(words) == 9
        assert all(len(w) == 3 for w in words)

    def test_deterministic_output(self, tmp_path, capsys):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        assert cli.main(["construct", "-m", "3", "--output", str(out1)]) == 0
        assert cli.main(["construct", "-m", "3", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        meta1 = (tmp_path / "a.txt.meta.json").read_bytes()
        meta2 = (tmp_path / "b.txt.meta.json").read_bytes()
        assert meta1 == meta2

    @pytest.mark.parametrize("command", ["construct", "verify"])
    def test_dimension_below_two_is_checked_where_it_is_read(self, tmp_path, capsys, command):
        # a usage error before any command runs, also with a generator given
        argv = [command, "-m", "1", "--generator" if command == "construct" else "--input", "1"]
        assert cli.main(argv) == 1
        assert "argument -m: simplex dimension -m must be >= 2, got 1" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# dimension\nm=1\n")
        assert cli.main([command, "--config", str(cfg), "--output", str(tmp_path / "x.txt")]) == 1
        assert f"config value '1' is invalid for m ({cfg}:2)" in capsys.readouterr().err

    def test_sidecar_records_the_energy_parameters(self, tmp_path, capsys):
        out = tmp_path / "code.txt"
        argv = ["construct", "-m", "2", "--output", str(out), "--at-energy", "-3", "--threshold", "-4"]
        assert cli.main(argv) == 0
        meta = json.loads((tmp_path / "code.txt.meta.json").read_text())
        assert list(meta)[list(meta).index("threshold"):] == ["threshold", "at_energy", "gc_energy", "energies"]
        assert (meta["threshold"], meta["at_energy"], meta["gc_energy"]) == (-4, -3, -2)

    def test_requires_dimension(self, capsys):
        assert cli.main(["construct", "--output", "x.txt"]) == 1

    def test_dimension_without_default_generator_is_usage_error(self, tmp_path, capsys):
        for m, message in (
            ("1", "argument -m: simplex dimension -m must be >= 2, got 1"),
            ("9", "no default generator for dimension 9"),
        ):
            rc = cli.main(["construct", "-m", m, "--output", str(tmp_path / "x.txt")])
            assert rc == 1
            assert message in capsys.readouterr().err
        bad = "1" * 256 + "0" * 255
        rc = cli.main(["construct", "-m", "9", "--generator", bad, "--output", str(tmp_path / "x.txt")])
        assert rc == 3


class TestVerify:
    def test_constructed_code_verifies(self, tmp_path, capsys):
        out = tmp_path / "code.txt"
        assert cli.main(["construct", "-m", "3", "--output", str(out)]) == 0
        capsys.readouterr()
        rc = cli.main(["verify", "--input", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "verdict: PASS" in captured.out

    def test_tampered_metadata_fails(self, tmp_path, capsys):
        out = tmp_path / "code.txt"
        assert cli.main(["construct", "-m", "3", "--output", str(out)]) == 0
        meta_path = tmp_path / "code.txt.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["min_hamming_distance"] = 5
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        rc = cli.main(["verify", "--input", str(out)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "declared 5" in captured.out
        assert "verdict: FAIL" in captured.out.splitlines()

    TAMPERED = {
        "size": 48,
        "length": 6,
        "min_hamming_distance": 5,
        "gc_content": 3,
        "max_mu": 1,
    }

    @pytest.mark.parametrize("key", TAMPERED)
    def test_each_tampered_fact_fails_alone(self, tmp_path, capsys, key):
        out = tmp_path / "code.txt"
        assert cli.main(["construct", "-m", "3", "--output", str(out)]) == 0
        meta_path = tmp_path / "code.txt.meta.json"
        meta = json.loads(meta_path.read_text())
        recomputed = meta[key]
        meta[key] = self.TAMPERED[key]
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        rc = cli.main(["verify", "--input", str(out)])
        failures = [l for l in capsys.readouterr().out.splitlines() if l.startswith("failure:")]
        assert rc == 3
        assert failures == [
            f"failure: {key}: declared {self.TAMPERED[key]}, recomputed {recomputed}"
        ]

    def verify_tampered(self, tmp_path, capsys, change, *flags):
        """Exit code, failure lines and stderr of verify on the m=3 code after change(sidecar)."""
        out = tmp_path / "code.txt"
        assert cli.main(["construct", "-m", "3", "--output", str(out)]) == 0
        meta_path = tmp_path / "code.txt.meta.json"
        meta = json.loads(meta_path.read_text())
        change(meta)
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        rc = cli.main(["verify", "--input", str(out), *flags])
        captured = capsys.readouterr()
        return rc, [l for l in captured.out.splitlines() if l.startswith("failure:")], captured.err

    @pytest.mark.parametrize("key,value,recomputed", [
        ("threshold", -7, -2),
        ("mu_bound", 0, 2),
        ("at_energy", -3, -1),
        ("gc_energy", 0, -2),
    ])
    def test_each_tampered_parameter_fails_alone(self, tmp_path, capsys, key, value, recomputed):
        rc, failures, _ = self.verify_tampered(tmp_path, capsys, lambda meta: meta.update({key: value}))
        assert rc == 3
        assert failures == [f"failure: {key}: declared {value}, recomputed {recomputed}"]

    @pytest.mark.parametrize("key,value", [("size", 9.0), ("gc_content", 2.0), ("threshold", False), (None, None)])
    def test_sidecar_values_match_only_with_their_json_type(self, tmp_path, capsys, key, value):
        # the m=2 code has 9 words of GC-content 2; it is written and verified at threshold 0
        out = tmp_path / "code.txt"
        assert cli.main(["construct", "-m", "2", "--threshold", "0", "--output", str(out)]) == 0
        meta_path = tmp_path / "code.txt.meta.json"
        meta = json.loads(meta_path.read_text())
        recomputed = meta.get(key)
        if key is not None:
            meta[key] = value
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        rc = cli.main(["verify", "--input", str(out), "--threshold", "0"])
        failures = [l for l in capsys.readouterr().out.splitlines() if l.startswith("failure:")]
        if key is None:
            assert (rc, failures) == (0, [])
        else:
            assert rc == 3
            assert failures == [f"failure: {key}: declared {value}, recomputed {recomputed}"]

    def test_tampered_energy_names_the_word(self, tmp_path, capsys):
        rc, failures, _ = self.verify_tampered(
            tmp_path, capsys, lambda meta: meta["energies"].update(GGGAGAA=-99)
        )
        assert rc == 3
        assert failures == ["failure: energies[GGGAGAA]: declared -99, recomputed 0"]

    def test_energies_compare_under_verify_flags(self, tmp_path, capsys):
        # a sidecar without at_energy/gc_energy (an older file) is compared
        # under verify's own flags; with them, the parameter is named first
        def older(meta):
            del meta["at_energy"], meta["gc_energy"]

        assert self.verify_tampered(tmp_path, capsys, older)[:2] == (0, [])
        rc, failures, _ = self.verify_tampered(tmp_path, capsys, older, "--at-energy", "-3")
        assert rc == 3
        assert failures and all(f.startswith("failure: energies[") for f in failures)
        rc, named, _ = self.verify_tampered(tmp_path, capsys, lambda meta: None, "--at-energy", "-3")
        assert rc == 3
        assert named == ["failure: at_energy: declared -1, recomputed -3", *failures]

    def test_unknown_sidecar_key_is_data_error(self, tmp_path, capsys):
        rc, failures, err = self.verify_tampered(tmp_path, capsys, lambda meta: meta.update(bogus_key=1))
        assert rc == 2
        assert failures == []
        assert err == f"oligoforge: error: {tmp_path / 'code.txt.meta.json'}: unknown sidecar key 'bogus_key'\n"

    @pytest.mark.parametrize("generator,message", [
        ("not-a-bit-string", "generator: generator must be a bit string, got 'not-a-bit-string'"),
        ("1010101", "generator: shifts plus zero are not closed under XOR"),
    ])
    def test_sidecar_generator_must_be_a_simplex_generator(self, tmp_path, capsys, generator, message):
        rc, failures, err = self.verify_tampered(
            tmp_path, capsys, lambda meta: meta.update(generator=generator)
        )
        assert rc == 3
        assert failures == []
        assert err == f"oligoforge: error: {tmp_path / 'code.txt.meta.json'}: {message}\n"

    @pytest.mark.parametrize("generator,failures", [
        ("1001011", [f"failure: generator: {{path}} does not hold the code of 1001011"]),
        ("1110100", []),
        ("0111010", []),  # a rotation of the generator has the same code
    ])
    def test_file_must_hold_the_generator_code(self, tmp_path, capsys, generator, failures):
        rc, found, _ = self.verify_tampered(tmp_path, capsys, lambda meta: meta.update(generator=generator))
        assert found == [f.format(path=tmp_path / "code.txt") for f in failures]
        assert rc == (3 if failures else 0)

    def test_generator_without_dimension(self, tmp_path, capsys):
        rc, _, err = self.verify_tampered(tmp_path, capsys, lambda meta: meta.update(m=None))
        assert rc == 3
        assert "code.txt.meta.json: generator: no m to check it against" in err
        # -m supplies it
        rc, failures, _ = self.verify_tampered(tmp_path, capsys, lambda meta: meta.update(m=None), "-m", "3")
        assert (rc, failures) == (3, ["failure: m: declared None, recomputed 3"])

    # 2^20000 has over 6000 digits, more than Python prints; the m of a sidecar
    # or of -m is checked against the length 7 first, and a report is written
    @pytest.mark.parametrize("change,flags,failures", [
        (lambda meta: meta.update(m=20000), [], [
            "failure: m: 20000 needs words of length 2^m - 1, got length 7",
            "failure: mu_bound: declared 2, recomputed None",
        ]),
        (lambda meta: None, ["-m", "20000"], [
            "failure: m: 20000 needs words of length 2^m - 1, got length 7",
            "failure: m: declared 3, recomputed 20000",
            "failure: mu_bound: declared 2, recomputed None",
        ]),
        (lambda meta: meta.clear(), ["-m", str(10**12)], [
            f"failure: m: {10**12} needs words of length 2^m - 1, got length 7",
        ]),
    ], ids=["sidecar", "flag", "flag-without-sidecar"])
    def test_declared_dimension_must_fit_the_word_length(self, tmp_path, capsys, change, flags, failures):
        out = tmp_path / "code.txt"
        assert cli.main(["construct", "-m", "3", "--output", str(out)]) == 0
        meta_path = tmp_path / "code.txt.meta.json"
        meta = json.loads(meta_path.read_text())
        change(meta)
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        rc = cli.main(["verify", "--input", str(out), *flags])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (3, "")
        lines = captured.out.splitlines()
        assert lines[:2] == ["codewords: 49", "length: 7"]
        assert "max_mu: 2" in lines  # no bound without a fitting m
        assert "verdict: FAIL" in lines
        assert [l for l in lines if l.startswith("failure:")] == failures

    def test_bound_violation_fails(self, tmp_path, capsys):
        path = tmp_path / "weak.txt"
        write_lines(path, ["GCG", "CGC"])
        rc = cli.main(["verify", "--input", str(path), "-m", "2"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "exceeds bound" in captured.out

    def test_malformed_sidecar_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "code.txt"
        assert cli.main(["construct", "-m", "3", "--output", str(out)]) == 0
        meta_path = tmp_path / "code.txt.meta.json"
        meta_path.write_text('{"m": 3,\n "size": }\n')
        capsys.readouterr()
        rc = cli.main(["verify", "--input", str(out)])
        assert rc == 2
        assert f"{meta_path}:2: malformed JSON" in capsys.readouterr().err
        meta_path.write_bytes(b'{"m": 3, "generator": "\xc3\xa9"}\n')
        rc = cli.main(["verify", "--input", str(out)])
        assert rc == 2
        assert f"{meta_path}: not an ASCII file" in capsys.readouterr().err

    def test_sidecar_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "code.txt"
        write_lines(path, [w.text for w in build_dna_code(simplex_code(3)).codewords])
        meta_path = tmp_path / "list.json"
        meta_path.write_text("[1,2]\n")
        rc = cli.main(["verify", "--input", str(path), "--meta", str(meta_path)])
        assert rc == 2
        assert f"{meta_path}: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ['"six"', "1", "true"])
    def test_sidecar_m_must_be_an_integer_of_at_least_two(self, tmp_path, capsys, m):
        path = tmp_path / "code.txt"
        write_lines(path, [w.text for w in build_dna_code(simplex_code(3)).codewords])
        meta_path = tmp_path / "bad.json"
        meta_path.write_text(f'{{"m": {m}}}\n')
        rc = cli.main(["verify", "--input", str(path), "--meta", str(meta_path)])
        assert rc == 2
        assert f"{meta_path}: m must be an integer >= 2" in capsys.readouterr().err

    def test_sidecar_generator_must_be_a_string(self, tmp_path, capsys):
        path = tmp_path / "code.txt"
        write_lines(path, [w.text for w in build_dna_code(simplex_code(3)).codewords])
        meta_path = tmp_path / "bad.json"
        meta_path.write_text('{"m": 3, "generator": 1110100}\n')
        rc = cli.main(["verify", "--input", str(path), "--meta", str(meta_path)])
        assert rc == 2
        assert f"{meta_path}: generator must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["1", "0"])
    def test_dimension_below_two_is_usage_error(self, tmp_path, capsys, m):
        path = tmp_path / "weak.txt"
        write_lines(path, ["GCG", "CGC"])
        rc = cli.main(["verify", "--input", str(path), "-m", m])
        assert rc == 1
        assert "-m must be >= 2" in capsys.readouterr().err

    def test_empty_file_names_no_line(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        rc = cli.main(["verify", "--input", str(path)])
        assert rc == 2
        assert capsys.readouterr().err == f"oligoforge: error: {path}: no sequences to verify\n"

    def test_unequal_lengths_are_data_error(self, tmp_path, capsys):
        path = tmp_path / "mixed.txt"
        write_lines(path, ["ACGT", "ACG"])
        rc = cli.main(["verify", "--input", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"oligoforge: error: {path}: codewords must have equal length\n"

    def test_plain_file_without_metadata(self, tmp_path, capsys):
        path = tmp_path / "plain.txt"
        write_lines(path, ["ACGT", "TGCA"])
        rc = cli.main(["verify", "--input", str(path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "codewords: 2" in captured.out


class TestConfig:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# settings\ns=2\nn=3\n")
        rc = cli.main(["enumerate", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.splitlines()[1:] == ["1\t4", "2\t12", "3\t28"]

    def test_cli_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threshold=-100\n")
        path = tmp_path / "in.txt"
        write_lines(path, [TABLE_SEQ_1])
        rc = cli.main(
            ["screen", "--input", str(path), "--threshold", "-2", "--config", str(cfg)]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "energy -6" in captured.err  # -2 from the command line won

    def test_config_without_cli_flag_applies(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threshold=-100\n")
        path = tmp_path / "in.txt"
        write_lines(path, [TABLE_SEQ_1])
        rc = cli.main(["screen", "--input", str(path), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.splitlines() == [TABLE_SEQ_1]  # -100 never triggers

    def test_config_can_supply_paths(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        write_lines(path, ["GGGAGAA"])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input={path}\n")
        rc = cli.main(["fold", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "sequence: GGGAGAA" in captured.out

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threshold\n")
        assert cli.main(["enumerate", "--config", str(cfg)]) == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        write_lines(path, [TABLE_SEQ_1])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# shared settings\ngenerator=1110100\nthreshhold=-2\n")
        rc = cli.main(["screen", "--input", str(path), "--config", str(cfg)])
        assert rc == 1
        assert f"{cfg}:3: unknown config key 'threshhold'" in capsys.readouterr().err
        # a key another subcommand takes is allowed
        cfg.write_text("generator=1110100\nthreshold=-2\n")
        rc = cli.main(["screen", "--input", str(path), "--config", str(cfg)])
        assert rc == 0
        assert "energy -6" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=three\n")
        assert cli.main(["enumerate", "--config", str(cfg)]) == 1

    def test_zero_denominator_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        write_lines(path, ["GCGC"])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("approx_threshold=1/0\n")
        rc = cli.main(["screen", "--input", str(path), "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("oligoforge: error: config value '1/0'")

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        write_lines(path, [TABLE_SEQ_1])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threshold=-2\n# stricter\nthreshold=-9\n")
        rc = cli.main(["screen", "--input", str(path), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert f"{cfg}:3: config key 'threshold' repeats the one at {cfg}:1" in captured.err
        # two spellings of one option are one key
        cfg.write_text("max_mu=1\nmax-mu=2\n")
        assert cli.main(["screen", "--input", str(path), "--config", str(cfg)]) == 1
        assert f"{cfg}:2: config key 'max-mu' repeats the one at {cfg}:1" in capsys.readouterr().err

    def test_invalid_value_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        write_lines(path, [TABLE_SEQ_1])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s=2\n\nthreshold=abc\n")
        rc = cli.main(["screen", "--input", str(path), "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"oligoforge: error: config value 'abc' is invalid for threshold ({cfg}:3)\n"
        )

    def test_config_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("config=other.cfg\n")
        assert cli.main(["enumerate", "--config", str(cfg)]) == 1
        assert f"{cfg}:1: unknown config key 'config'" in capsys.readouterr().err

    def test_non_ascii_byte_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"s=2\n# caf\xc3\xa9\n")
        assert cli.main(["enumerate", "--config", str(cfg)]) == 1
        assert f"{cfg}:2: non-ASCII byte 0xc3 at position 6" in capsys.readouterr().err

    # dest -> (text on the command line or in a config file, converted value);
    # each value differs from every command's default
    SAMPLES = {
        "input": ("in.txt", "in.txt"),
        "output": ("out.txt", "out.txt"),
        "log": ("rejects.log", "rejects.log"),
        "meta": ("code.json", "code.json"),
        "format": ("csv", "csv"),
        "s": ("3", 3),
        "n": ("5", 5),
        "m": ("4", 4),
        "w": ("2", 2),
        "max_mu": ("1", 1),
        "gc_min": ("1", 1),
        "gc_max": ("3", 3),
        "threshold": ("-5", -5),
        "approx_threshold": ("5/2", Fraction(5, 2)),
        "at_energy": ("-3", -3),
        "gc_energy": ("-4", -4),
        "tol": ("1e-9", 1e-9),
        "generator": ("1110100", "1110100"),
        "oracle": ("yes", True),
        "mu1": ("yes", True),
        "gc": ("yes", True),
    }

    @pytest.mark.parametrize(
        "command,dest",
        [(name, dest) for name, (_, _, defaults) in cli.COMMANDS.items() for dest in defaults],
    )
    def test_flag_and_config_key_resolve_alike(self, tmp_path, command, dest):
        text, value = self.SAMPLES[dest]
        flags, converter, _ = cli.OPTIONS[dest]
        flag_argv = [flags[0]] if converter is cli._parse_bool else [flags[0], text]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{dest}={text}\n")
        defaults = cli.COMMANDS[command][2]
        routes = []
        for argv in ([command, *flag_argv], [command, "--config", str(cfg)]):
            args = cli.build_parser().parse_args(argv)
            cli._resolve(args, defaults)
            routes.append(getattr(args, dest))
        assert value != defaults[dest]
        assert routes == [value, value]


class TestOptionRanges:
    # (command, dest, first value out of range, message)
    CASES = [
        ("enumerate", "s", "0", "shift depth must be >= 1, got 0"),
        ("screen", "s", "-3", "shift depth must be >= 1, got -3"),
        ("enumerate", "n", "0", "word length must be >= 1, got 0"),
        ("count", "n", "-1", "word length must be >= 1, got -1"),
        ("count", "w", "-1", "GC-content must be >= 0, got -1"),
        ("screen", "w", "-1", "GC-content must be >= 0, got -1"),
        ("screen", "max_mu", "-1", "mu bound must be >= 0, got -1"),
        ("screen", "gc_min", "-3", "GC-content must be >= 0, got -3"),
        ("screen", "gc_max", "-1", "GC-content must be >= 0, got -1"),
        ("screen", "at_energy", "1", "pair energy must be <= 0, got 1"),
        ("fold", "gc_energy", "1", "pair energy must be <= 0, got 1"),
    ]

    def argv(self, tmp_path, command):
        # the shortest command line on which each command runs
        path = tmp_path / "in.txt"
        write_lines(path, ["ACGTAC"])
        return {
            "screen": ["screen", "--input", str(path)],
            "fold": ["fold", "--input", str(path)],
            "count": ["count", "--gc"],
        }.get(command, [command])

    @pytest.mark.parametrize("command,dest,value,message", CASES)
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, command, dest, value, message):
        flag = cli.OPTIONS[dest][0][0]
        assert cli.main([*self.argv(tmp_path, command), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: {message}" in captured.err

    @pytest.mark.parametrize("command,dest,value", [case[:3] for case in CASES])
    def test_out_of_range_config_value_is_usage_error(self, tmp_path, capsys, command, dest, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{dest}={value}\n")
        assert cli.main([*self.argv(tmp_path, command), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config value {value!r} is invalid for {dest}" in captured.err

    @pytest.mark.parametrize("command,dest,value", [
        ("enumerate", "s", "1"), ("enumerate", "n", "1"), ("count", "w", "0"), ("screen", "max_mu", "0"),
        ("screen", "gc_min", "0"), ("screen", "gc_max", "0"), ("screen", "at_energy", "0"),
        ("fold", "gc_energy", "0"),
    ])
    def test_bound_itself_is_accepted(self, tmp_path, capsys, command, dest, value):
        flag = cli.OPTIONS[dest][0][0]
        assert cli.main([*self.argv(tmp_path, command), flag, value]) == 0


class TestInputFlag:
    @pytest.mark.parametrize("argv", [
        ["enumerate", "-s", "2", "-n", "3"],
        ["gf", "-s", "2"],
        ["count", "--gc", "-n", "3"],
        ["construct", "-m", "2"],
    ])
    def test_commands_without_input_reject_the_flag(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--input", "nonexist", "--output", str(tmp_path / "o.txt")]) == 1
        assert "unrecognized arguments: --input nonexist" in capsys.readouterr().err

    def test_input_config_key_stays_allowed(self, tmp_path, capsys):
        # one config file can serve fold, screen and verify as well
        cfg = tmp_path / "run.cfg"
        cfg.write_text("input=nonexist\ns=2\nn=3\n")
        assert cli.main(["enumerate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["1\t4", "2\t12", "3\t28"]


class TestUsage:
    def test_no_command_prints_help(self, capsys):
        assert cli.main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        assert cli.main(["transmogrify"]) == 1

    def test_unknown_flag(self, capsys):
        assert cli.main(["fold", "--frobnicate"]) == 1
