import json
import math

from oligoforge import cli, folding
from oligoforge.codegen import build_dna_code, simplex_code

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
            records = []
            for word in words:
                table = folding.nussinov_table(word)
                structure = folding.traceback(table, word)
                energy = table.min_free_energy
                records.append(
                    {
                        "sequence": word,
                        "min_free_energy": energy,
                        "has_structure": energy <= -2,
                        "threshold": -2,
                        "pairs": [list(p) for p in structure.sorted_pairs()],
                        "dot_bracket": folding.dot_bracket(structure, table.n),
                        "table": [
                            [table.value(i, j) if j >= i - 1 else "*" for j in range(1, table.n + 1)]
                            for i in range(1, table.n + 1)
                        ],
                    }
                )
            assert captured.out == json.dumps(records, indent=2) + "\n"

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

    def test_requires_exactly_one_mode(self, capsys):
        assert cli.main(["count", "-n", "3"]) == 1
        assert cli.main(["count", "--mu1", "--gc", "-n", "3"]) == 1


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

    def test_requires_dimension(self, capsys):
        assert cli.main(["construct", "--output", "x.txt"]) == 1


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


class TestUsage:
    def test_no_command_prints_help(self, capsys):
        assert cli.main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        assert cli.main(["transmogrify"]) == 1

    def test_unknown_flag(self, capsys):
        assert cli.main(["fold", "--frobnicate"]) == 1
