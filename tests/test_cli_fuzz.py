"""The command line over generated inputs, run in-process through cli.main.

Sidecars (nested ones too), config files, sequence files and integer flags
are generated small (-n <= 8, -s <= 1000, -m 2-4). For every input:

- the exit code is 0, 1, 2 or 3, and no exception escapes main;
- exit 2 names the file at fault on stderr;
- exit 3 comes with the output that shows the failed check: a
  `verdict: FAIL` report or a `MISMATCH` row.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oligoforge import cli

FUZZ = settings(deadline=None, max_examples=60)

# JSON values of every type, extreme ints included
JSON_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 2**64, 1.5, "x", "", "1010101", [], {}]),
    st.integers(), st.floats(), st.text(max_size=8),
)


def run(argv, at_fault=(), output=None):
    """Exit code of cli.main(argv), checked: exit 2 names one of at_fault on
    stderr, and exit 3 shows a failed check on stdout or in output."""
    if output is not None and Path(output).is_file():  # not a report of an earlier run
        Path(output).unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(word) for word in argv])
    assert rc in (0, 1, 2, 3)
    if rc == 2:
        assert any(str(path) in err.getvalue() for path in at_fault), err.getvalue()
    if rc == 3:
        text = out.getvalue()
        if output is not None and Path(output).is_file():
            text += Path(output).read_text()
        assert "\nverdict: FAIL\n" in text or "\tMISMATCH\n" in text, text
    return rc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the m=3 code with its sidecar, and a few words."""
    path = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["construct", "-m", "3", "--output", str(path / "code.txt")]) == 0
    (path / "words.txt").write_text("ACGTAC\nGGGCCC\nATATAT\n")
    return path


class TestSidecars:
    KEYS = ["m", "generator", "size", "length", "min_hamming_distance", "gc_content", "max_mu",
            "mu_bound", "threshold", "at_energy", "gc_energy", "energies", "unknown"]

    @FUZZ
    @given(changes=st.dictionaries(st.sampled_from(KEYS), JSON_VALUES, max_size=3),
           m=st.sampled_from([None, 2, 3, 4]))
    @example(changes={"generator": "1010101"}, m=None)
    @example(changes={"generator": "x"}, m=3)
    @example(changes={"m": None}, m=None)
    def test_each_key_of_each_type(self, workdir, changes, m):
        meta = workdir / "sidecar.json"
        declared = json.loads((workdir / "code.txt.meta.json").read_text())
        declared.update(changes)
        meta.write_text(json.dumps(declared))
        argv = ["verify", "--input", workdir / "code.txt", "--meta", meta] + (["-m", m] if m else [])
        # a sidecar is data: it is never a usage error
        assert run(argv, at_fault=[meta]) in (0, 2, 3)

    @FUZZ
    @given(key=st.sampled_from(KEYS + [None]), depth=st.integers(0, 10**5),
           opener=st.sampled_from(["[", '{"k": ']))
    @example(key="size", depth=10**5, opener="[")
    def test_nested_documents(self, workdir, key, depth, opener):
        # arrays or objects nested around one value or the whole document, up
        # to far past the recursion limit json.load works under (hypothesis
        # raises that limit while a test runs)
        nested = opener * depth + "0" + ("]" if opener == "[" else "}") * depth
        meta = workdir / "nested.json"
        if key is None:
            meta.write_text(nested)
        else:
            declared = json.loads((workdir / "code.txt.meta.json").read_text())
            declared[key] = "NESTED"
            meta.write_text(json.dumps(declared).replace('"NESTED"', nested))
        assert run(["verify", "--input", workdir / "code.txt", "--meta", meta], at_fault=[meta]) in (0, 2, 3)

    @FUZZ
    @given(document=JSON_VALUES)
    def test_any_document(self, workdir, document):
        meta = workdir / "document.json"
        meta.write_text(json.dumps(document))
        assert run(["verify", "--input", workdir / "code.txt", "--meta", meta], at_fault=[meta]) in (0, 2, 3)


class TestConfigFiles:
    # per key, values the option accepts and values it refuses; the paths are
    # named by the files of the work directory
    VALUES = {
        "input": ["words.txt", "code.txt", "missing.txt", "."],
        "output": ["out.txt", ".", "missing/out.txt"],
        "log": ["log.txt", ".", "missing/log.txt"],
        "meta": ["code.txt.meta.json", "missing.json", "words.txt"],
        "format": ["text", "csv", "json", "xml"],
        "s": ["1", "2", "1000", "0", "x"],
        "n": ["1", "8", "0", "2.5"],
        "m": ["2", "3", "4", "1", "x"],
        "w": ["0", "3", "8", "-1"],
        "max_mu": ["0", "2", "-1"],
        "gc_min": ["0", "3", "-1"],
        "gc_max": ["0", "4", "-1"],
        "threshold": ["0", "-2", "1", "x"],
        "approx_threshold": ["-5/2", "0", "1e4300", "1e-4300", "1e4301", "1/0", "x"],
        "at_energy": ["0", "-1", "-1000000", "-1000001", "1"],
        "gc_energy": ["0", "-2", "-1000000", "-1000001", "1"],
        "tol": ["1e-12", "0.5", "0", "1", "nan", "inf", "x"],
        "generator": ["1110100", "1010101", "abc", "", "1"],
        "oracle": ["yes", "no", "maybe"],
        "mu1": ["on", "off", "2"],
        "gc": ["1", "0", "true", ""],
    }
    PATHS = {"input", "output", "log", "meta"}

    def test_every_option_has_values(self):
        assert set(self.VALUES) == set(cli.OPTIONS)

    @FUZZ
    @given(data=st.data(), command=st.sampled_from(list(cli.COMMANDS)), crlf=st.booleans())
    def test_every_key(self, workdir, data, command, crlf):
        config, lines = {}, ["# generated"]
        for dest in data.draw(st.lists(st.sampled_from(list(self.VALUES)), unique=True, max_size=4)):
            value = data.draw(st.sampled_from(self.VALUES[dest]))
            config[dest] = str(workdir / value) if dest in self.PATHS else value
            lines.append(f"{dest.replace('_', data.draw(st.sampled_from('_-')))} = {config[dest]}")
        cfg = workdir / "run.cfg"
        cfg.write_bytes((("\r\n" if crlf else "\n").join(lines) + "\n").encode())
        argv = [command, "--config", cfg]
        required = {"input": workdir / "words.txt", "m": 3, "output": workdir / "built.txt"}
        for dest, default in cli.COMMANDS[command][2].items():  # what the config leaves out
            if default is cli.REQUIRED and dest not in config:
                argv += [cli.OPTIONS[dest][0][0], required[dest]]
        output = config.get("output", required["output"] if command == "construct" else None)
        at_fault = [config[dest] for dest in self.PATHS if dest in config]
        run(argv, at_fault=at_fault + [required["input"]], output=output)


class TestSequenceFiles:
    LINES = st.one_of(
        st.text("ACGTacgt", min_size=1, max_size=12),  # words
        st.text("ACGTNX-5 ", min_size=1, max_size=8),  # bad bases and inner spaces
        # "\udcff" is written as the lone byte 0xff; str.strip() would drop \x0b and \x1c
        st.sampled_from(["", "   ", "# a comment", "#ACGT", "\tACGT ", "ACéGT", "\udcff", "\x00",
                         "\x1cACGT\x0b", "\x0c"]),
    )

    @FUZZ
    @given(lines=st.lists(LINES, max_size=8), crlf=st.booleans(),
           argv=st.sampled_from([
               ["fold"], ["fold", "--format", "json"], ["fold", "--format", "csv"],
               ["screen", "-s", "2", "--threshold", "-2", "--approx-threshold", "-3"],
               ["verify"], ["verify", "-m", "2"],
           ]))
    def test_bytes_of_any_kind(self, workdir, lines, crlf, argv):
        path = workdir / "seqs.txt"
        text = ("\r\n" if crlf else "\n").join(lines)
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        # the sequences are data: never a usage error
        assert run([*argv, "--input", path], at_fault=[path]) in (0, 2, 3)


class TestIntegerFlags:
    # each bounded integer option at its bounds, one past them, and at the
    # largest value these tests afford
    VALUES = {
        "s": ["0", "1", "1000"],
        "n": ["0", "1", "8"],
        "m": ["1", "2", "4"],
        "w": ["-1", "0", "8"],
        "max_mu": ["-1", "0"],
        "gc_min": ["-1", "0"],
        "gc_max": ["-1", "0"],
        "threshold": ["1", "0", "-1000000"],
        "at_energy": ["1", "0", "-1000000", "-1000001"],
        "gc_energy": ["1", "0", "-1000000", "-1000001"],
    }

    @FUZZ
    @given(data=st.data(), command=st.sampled_from(list(cli.COMMANDS)))
    def test_bounds(self, workdir, data, command):
        defaults = cli.COMMANDS[command][2]
        flags = data.draw(st.lists(st.sampled_from([d for d in self.VALUES if d in defaults]), unique=True, max_size=3))
        argv = [command]
        for dest in flags:
            argv += [cli.OPTIONS[dest][0][0], data.draw(st.sampled_from(self.VALUES[dest]))]
        output = workdir / "bounds.txt"
        if "input" in defaults:
            argv += ["--input", workdir / ("code.txt" if command == "verify" else "words.txt")]
        if command == "construct":
            argv += ["--output", output] + ([] if "m" in flags else ["-m", "3"])
        if command in ("enumerate", "count"):
            argv += data.draw(st.sampled_from([[], ["--oracle"]]))
        if command == "count":
            argv += data.draw(st.sampled_from([["--gc"], ["--mu1"], [], ["--gc", "--mu1"]]))
        run(argv, output=output)
