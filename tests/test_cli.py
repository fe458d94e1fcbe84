"""End-to-end tests for the `legch` command-line front end."""

import argparse
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from legch import algebra, cli
from legch.algebra import poly_to_str
from legch.builders import connect_sum, tangle_from_dict
from legch.cli import main
from legch.dga import dga_from_dict, dga_to_dict
from legch.moves import kalman_monodromy
from legch.obstruction import family_dga


def sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def stdin_bytes(raw: bytes):
    return io.TextIOWrapper(io.BytesIO(raw))


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestBuild:
    def test_torus_3(self, capsys):
        status, out, _ = run_cli(capsys, "build", "torus", "--n", "3")
        assert status == 0
        doc = json.loads(out)
        assert doc["schema"] == "dga.v1"
        assert doc["differential"]["a1"] == "1 + b1 + b3 + b1 b2 b3"
        assert doc["differential"]["a2"] == "b2 + b1 b2 + b2 b3 + b2 b3 b1 b2"

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "build", "torus", "--n", "5")
        _, second, _ = run_cli(capsys, "build", "torus", "--n", "5")
        assert first == second

    def test_even_n_fails(self, capsys):
        status, _, err = run_cli(capsys, "build", "torus", "--n", "4")
        assert status == 1
        assert "error" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "torus"])  # missing --n
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


    def test_parser_built_once(self, capsys):
        assert cli._parser() is cli._parser()
        # an appended option starts empty on each call
        _, first, _ = run_cli(capsys, "verdict", "--fly", "3", "--power", "1")
        _, second, _ = run_cli(capsys, "verdict", "--fly", "3", "--power", "2")
        assert [e["power"] for e in json.loads(first)["entries"]] == [1]
        assert [e["power"] for e in json.loads(second)["entries"]] == [2]


class TestPipeline:
    def make_tangle(self, capsys, tmp_path, n, prefix):
        dga_path = tmp_path / f"{prefix}dga.json"
        tangle_path = tmp_path / f"{prefix}tangle.json"
        status, _, _ = run_cli(
            capsys, "build", "torus", "--n", str(n), "--emit", str(dga_path)
        )
        assert status == 0
        status, _, _ = run_cli(
            capsys,
            "tangle",
            str(dga_path),
            "--prefix",
            prefix,
            "--emit",
            str(tangle_path),
        )
        assert status == 0
        return tangle_path

    def test_tangle_word(self, capsys, tmp_path):
        tangle = self.make_tangle(capsys, tmp_path, 3, "k1")
        status, out, _ = run_cli(capsys, "word", str(tangle))
        assert status == 0
        doc = json.loads(out)
        assert doc["length"] == 5
        assert doc["word"].startswith("1 + k1.b2")

    def test_sum_and_classify(self, capsys, tmp_path):
        t1 = self.make_tangle(capsys, tmp_path, 3, "k1")
        t2 = self.make_tangle(capsys, tmp_path, 3, "k2")
        sum_path = tmp_path / "sum.json"
        status, _, _ = run_cli(
            capsys, "sum", str(t1), str(t2), "--emit", str(sum_path)
        )
        assert status == 0
        doc = json.loads(sum_path.read_text())
        assert doc["schema"] == "dga.v1"
        status, out, _ = run_cli(capsys, "classify", str(sum_path), "--strict")
        assert status == 0
        assert json.loads(out)["even_delta_class"] is True

    def test_classify_strict_failure(self, capsys, tmp_path):
        dga_path = tmp_path / "dga.json"
        run_cli(capsys, "build", "torus", "--n", "5", "--emit", str(dga_path))
        status, out, _ = run_cli(capsys, "classify", str(dga_path), "--strict")
        assert status == 1
        assert json.loads(out)["even_delta_class"] is False

    def test_manifest(self, capsys, tmp_path):
        dga_path = tmp_path / "dga.json"
        manifest_path = tmp_path / "manifest.json"
        run_cli(
            capsys,
            "build",
            "torus",
            "--n",
            "3",
            "--emit",
            str(dga_path),
            "--manifest",
            str(manifest_path),
        )
        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema"] == "manifest.v1"
        assert str(dga_path) in manifest["outputs"]
        assert manifest["outputs"][str(dga_path)] == sha256(dga_path.read_bytes())

    def test_manifest_hashes_the_bytes_read(self, capsys, tmp_path, monkeypatch):
        # a CRLF copy is hashed as it is on disk, not after newline translation
        _, out, _ = run_cli(capsys, "build", "torus", "--n", "3")
        raw = out.replace("\n", "\r\n").encode()
        dga_path = tmp_path / "dga.json"
        dga_path.write_bytes(raw)
        manifest_path = tmp_path / "manifest.json"
        monkeypatch.setattr("sys.stdin", stdin_bytes(raw))
        for source in (str(dga_path), "-"):
            status, _, _ = run_cli(
                capsys, "tangle", source, "--manifest", str(manifest_path)
            )
            assert status == 0
            inputs = json.loads(manifest_path.read_text())["inputs"]
            assert inputs == {source: sha256(raw)}

    def test_document_not_utf8_exits_1(self, capsys, tmp_path, monkeypatch):
        raw = b'{"schema": "dga.v1\xff"}'
        path = tmp_path / "dga.json"
        path.write_bytes(raw)
        monkeypatch.setattr("sys.stdin", stdin_bytes(raw))
        for source in (str(path), "-"):
            status, out, err = run_cli(capsys, "tangle", source)
            assert status == 1 and not out
            assert err == f"error: {source} is not UTF-8: invalid start byte at byte 18\n"

    def test_stdin(self, capsys, tmp_path, monkeypatch):
        dga_path = tmp_path / "dga.json"
        run_cli(capsys, "build", "torus", "--n", "3", "--emit", str(dga_path))
        monkeypatch.setattr("sys.stdin", stdin_bytes(dga_path.read_bytes()))
        status, out, _ = run_cli(capsys, "tangle", "-")
        assert status == 0
        assert json.loads(out)["schema"] == "tangle.v1"


# Run in a fresh interpreter: build the trefoil to the file argv[1], with
# a manifest at argv[2] if given, read it back, and print which of
# the modules a plain run never needs were loaded.
FOOTPRINT = """
import json, sys
from legch import cli
from legch.dga import dga_from_dict
doc, manifest = sys.argv[1], sys.argv[2:]
argv = ["build", "torus", "--n", "3", "--emit", doc]
status = cli.main(argv + (["--manifest", manifest[0]] if manifest else []))
with open(doc) as fh:
    dga_from_dict(json.load(fh))
loaded = [m for m in ("hashlib", "_hashlib", "fractions", "decimal") if m in sys.modules]
print(json.dumps({"status": status, "loaded": loaded}))
"""


class TestFootprint:
    def footprint(self, tmp_path, *manifest):
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-B", "-c", FOOTPRINT, str(tmp_path / "trefoil.json"), *manifest],
            env={"PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(done.stdout)

    def test_plain_run_loads_no_digest_or_fraction_code(self, tmp_path):
        # hashlib loads OpenSSL (3.6 MB of RSS with Python 3.11 on Linux),
        # fractions loads decimal: only --manifest and heights need them
        assert self.footprint(tmp_path) == {"status": 0, "loaded": []}

    def test_manifest_run_records_the_digest(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        assert self.footprint(tmp_path, str(manifest)) == {
            "status": 0,
            "loaded": ["hashlib", "_hashlib"],
        }
        doc = tmp_path / "trefoil.json"
        outputs = json.loads(manifest.read_text())["outputs"]
        assert outputs == {str(doc): sha256(doc.read_bytes())}


# sha256 of the n = 7 quick start's documents, each byte-identical under
# every hash seed: the canonical form of docs/schemas.md
QUICK_START_7 = {
    "t1.json": "a928b358ad5d4855d11b52d05ac5459e6036a4d52f16302cd5919387697f8ffd",
    "sum.json": "48fcd09ad79511d7c9061d393fa4224b0fc061f7efc761a18414bc40581a50a6",
    "classify.json": "fafd9b4d4f3201049d228bf95632bd95732e62818caf3af231faeccfe8fe6198",
}


@pytest.fixture(scope="module")
def quick_start_7(tmp_path_factory):
    """A directory with the README quick start at n = 7, each step run with
    a manifest: knot, the tangles k1 and k2, their sum, its classification."""
    path = tmp_path_factory.mktemp("quick_start_7")
    steps = [
        ["build", "torus", "--n", "7", "--emit", "knot.json"],
        ["tangle", "knot.json", "--prefix", "k1", "--emit", "t1.json"],
        ["tangle", "knot.json", "--prefix", "k2", "--emit", "t2.json"],
        ["sum", "t1.json", "t2.json", "--emit", "sum.json"],
        ["classify", "sum.json", "--emit", "classify.json"],
    ]
    for argv in steps:
        argv = [str(path / a) if a.endswith(".json") else a for a in argv]
        manifest = path / f"{argv[0]}.manifest.json"
        assert main([*argv, "--manifest", str(manifest)]) == 0
        emitted = argv[-1]
        outputs = json.loads(manifest.read_text())["outputs"]
        assert outputs == {emitted: sha256((path / emitted).read_bytes())}
    return path


class TestStreamedDocuments:
    def test_quick_start_7_bytes_are_pinned(self, capsys, quick_start_7):
        for name, digest in QUICK_START_7.items():
            assert sha256((quick_start_7 / name).read_bytes()) == digest
        # the same bytes go to stdout without --emit
        for argv, name in (
            (["sum", "t1.json", "t2.json"], "sum.json"),
            (["classify", "sum.json"], "classify.json"),
        ):
            argv = [str(quick_start_7 / a) if a.endswith(".json") else a for a in argv]
            status, out, _ = run_cli(capsys, *argv)
            assert status == 0
            assert out.encode() == (quick_start_7 / name).read_bytes()

    def test_failed_sum_leaves_no_document(self, capsys, tmp_path, monkeypatch, quick_start_7):
        monkeypatch.setattr(algebra, "EXPANSION_CAP", 3)
        out_path = tmp_path / "capped.json"
        status, out, err = run_cli(
            capsys, "sum", str(quick_start_7 / "t1.json"), str(quick_start_7 / "t2.json"),
            "--emit", str(out_path),
        )
        assert status == 1 and not out
        assert err == "error: canonical_words: expansion bound 31330 of a sum node exceeds cap 3\n"
        assert not out_path.exists()

    def test_document_memory(self, tmp_path, quick_start_7):
        # tracemalloc peaks of writing the n = 7 sum, about 6.1 MB (11.1 MB
        # when its words were expanded as tuples and the text built whole),
        # and of reading it back, about 8.7 MB (12.3 MB with a list of all
        # terms and a word set copied into a frozenset)
        run = cli._Run([], None)
        tangles = [tangle_from_dict(run.read(str(quick_start_7 / f"t{i}.json"))) for i in (1, 2)]
        dga = connect_sum(tangles)
        args = argparse.Namespace(emit=str(tmp_path / "sum.json"))
        tracemalloc.start()
        try:
            run.emit(args, dga_to_dict(dga))
            _, written = tracemalloc.get_traced_memory()
            del dga, tangles  # and whatever they keep
            tracemalloc.reset_peak()
            kept, _ = tracemalloc.get_traced_memory()
            dga_from_dict(run.read(args.emit))
            read = tracemalloc.get_traced_memory()[1] - kept
        finally:
            tracemalloc.stop()
        assert sha256((tmp_path / "sum.json").read_bytes()) == QUICK_START_7["sum.json"]
        assert written < 9_000_000
        assert read < 10_500_000


def script_doc():
    return {
        "schema": "script.v1",
        "initial": {
            "schema": "dga.v1",
            "generators": [
                {"name": "x", "degree": 0},
                {"name": "y", "degree": 0},
                {"name": "z", "degree": 0},
            ],
            "differential": {},
            "rotation_zero": True,
        },
        "events": [
            {"type": "RIIIa"},
            {"type": "RIIIb", "x": "x", "y": "y", "z": "z"},
        ],
        "mode": "verified",
    }


class TestScript:
    def run_doc(self, capsys, tmp_path, doc):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(doc))
        return run_cli(capsys, "script", "run", str(path))

    def test_run(self, capsys, tmp_path):
        status, out, _ = self.run_doc(capsys, tmp_path, script_doc())
        assert status == 0
        assert json.loads(out)["map"] == {"x": "x + z y"}

    def test_unknown_mode_rejected(self, capsys, tmp_path):
        doc = script_doc()
        doc["mode"] = "verifed"
        status, out, err = self.run_doc(capsys, tmp_path, doc)
        assert status == 1 and not out
        assert "malformed script.v1 document" in err

    def test_missing_event_field(self, capsys, tmp_path):
        doc = script_doc()
        del doc["events"][1]["y"]
        status, _, err = self.run_doc(capsys, tmp_path, doc)
        assert status == 1
        assert err == "error: malformed script.v1 document: missing field 'y'\n"

    def test_rii_birth_with_undeclared_letter(self, capsys, tmp_path):
        doc = script_doc()
        doc["events"] = [
            {
                "type": "RII",
                "x": {"name": "p", "degree": 1},
                "y": {"name": "q", "degree": 0},
                "new_differentials": {"p": "q + w"},
            }
        ]
        status, out, err = self.run_doc(capsys, tmp_path, doc)
        assert status == 1 and not out
        assert err == "error: d(p) mentions undeclared generators ['w']\n"

    def test_rii_relabel_riiinv(self, capsys, tmp_path):
        doc = script_doc()
        doc["initial"]["generators"] = [{"name": f"g{i}", "degree": 0} for i in range(4)]
        doc["events"] = [
            {
                "type": "RII",
                "x": {"name": "x", "degree": 1},
                "y": {"name": "y", "degree": 0},
                "new_differentials": {"x": "y + g0 g1"},
            },
            {"type": "RIIIb", "x": "g2", "y": "y", "z": "g3"},
            {"type": "Relabel", "perm": {"g0": "g1", "g1": "g0"}},
            {"type": "RIIInv", "x": "x", "y": "y"},
        ]
        status, out, _ = self.run_doc(capsys, tmp_path, doc)
        assert status == 0
        assert json.loads(out)["map"] == {"g0": "g1", "g1": "g0", "g2": "g2 + g3 g1 g0"}

    @pytest.mark.parametrize("degree", [1.5, "1", True])
    def test_rii_birth_degree_not_integer(self, capsys, tmp_path, degree):
        doc = script_doc()
        doc["events"] = [
            {"type": "RII", "x": {"name": "p", "degree": degree}, "y": {"name": "q", "degree": 0}}
        ]
        status, _, err = self.run_doc(capsys, tmp_path, doc)
        assert status == 1
        assert "malformed script.v1 document" in err and "not an integer" in err

    def test_malformed_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        status, _, err = run_cli(capsys, "script", "run", str(path))
        assert status == 1
        assert "error" in err


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "argv, schema",
        [(["tangle"], "dga.v1"), (["word"], "tangle.v1"), (["script", "run"], "script.v1")],
    )
    def test_not_an_object(self, capsys, monkeypatch, argv, schema):
        monkeypatch.setattr("sys.stdin", stdin_bytes(b"[]"))
        status, out, err = run_cli(capsys, *argv, "-")
        assert status == 1 and not out
        assert f"malformed {schema} document: not a JSON object" in err

    def word_of_trefoil_tangle(self, capsys, tmp_path, word):
        """`legch word` on the trefoil's tangle.v1 with its "word" replaced."""
        _, out, _ = run_cli(capsys, "build", "torus", "--n", "3")
        dga_path = tmp_path / "dga.json"
        dga_path.write_text(out)
        _, out, _ = run_cli(capsys, "tangle", str(dga_path))
        doc = json.loads(out)
        doc["word"] = word
        path = tmp_path / "tangle.json"
        path.write_text(json.dumps(doc))
        return run_cli(capsys, "word", str(path))

    def test_bad_generator_in_tangle_word(self, capsys, tmp_path):
        status, _, err = self.word_of_trefoil_tangle(capsys, tmp_path, "a + b!")
        assert status == 1
        assert "malformed tangle.v1 document: invalid generator name: 'b!'" in err

    def test_tangle_word_not_a_string(self, capsys, tmp_path):
        status, out, err = self.word_of_trefoil_tangle(capsys, tmp_path, 5)
        assert status == 1 and not out
        assert err == (
            "error: malformed tangle.v1 document: polynomial must be a string, got int\n"
        )

    def test_dga_checks_are_malformed_documents(self, capsys, tmp_path):
        doc = {"generators": [{"name": "x", "degree": 0}, {"name": "x", "degree": 1}]}
        path = tmp_path / "dga.json"
        path.write_text(json.dumps(doc))
        status, out, err = run_cli(capsys, "classify", str(path))
        assert status == 1 and not out
        assert err == "error: malformed dga.v1 document: duplicate generator names\n"

    @pytest.mark.parametrize("argv", [["classify"], ["tangle", "--closure", "x"]])
    def test_undeclared_letter_in_differential(self, capsys, tmp_path, argv):
        doc = {"generators": [{"name": "x", "degree": 1}], "differential": {"x": "y"}}
        path = tmp_path / "dga.json"
        path.write_text(json.dumps(doc))
        status, out, err = run_cli(capsys, *argv, str(path))
        assert status == 1 and not out
        assert err == (
            "error: malformed dga.v1 document: d(x) mentions undeclared generators ['y']\n"
        )

    @pytest.mark.parametrize("degree", [1.5, "1", True])
    def test_degree_not_integer(self, capsys, tmp_path, degree):
        _, out, _ = run_cli(capsys, "build", "torus", "--n", "3")
        doc = json.loads(out)
        doc["generators"][0]["degree"] = degree
        path = tmp_path / "dga.json"
        path.write_text(json.dumps(doc))
        status, _, err = run_cli(capsys, "classify", str(path))
        assert status == 1
        assert f"malformed dga.v1 document: degree {degree!r} is not an integer" in err


class TestVerdict:
    def test_trefoil_fly(self, capsys):
        status, out, _ = run_cli(
            capsys, "verdict", "--fly", "3", "--power", "1", "--power", "2"
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["schema"] == "verdict.v1"
        assert [e["power"] for e in doc["entries"]] == [1, 2]
        assert all(e["conclusion"] == "nontrivial" for e in doc["entries"])
        assert doc["entries"][0]["tau_value"] % 2 == 1
        assert doc["entries"][0]["mu_witness"]["poly"] is not None

    def test_bad_fly_exits_1(self, capsys):
        status, _, err = run_cli(capsys, "verdict", "--fly", "5")
        assert status == 1
        assert "error" in err

    def test_unknown_witness_is_named(self, capsys):
        status, out, err = run_cli(capsys, "verdict", "--fly", "3", "--witness", "zz")
        assert status == 1
        assert out == ""
        assert err == "error: unknown generator 'zz'\n"

    @pytest.mark.parametrize("role", ["witness", "marker"])
    def test_wrong_degree_names_its_role(self, capsys, role):
        status, out, err = run_cli(capsys, "verdict", "--fly", "3", f"--{role}", "a1")
        assert status == 1
        assert out == ""
        assert err == f"error: {role} 'a1' has degree 1\n"

    def test_mu_witness_is_the_image(self, capsys):
        status, out, _ = run_cli(capsys, "verdict", "--fly", "3")
        assert status == 0
        _, fly_word = family_dga([3])
        for entry in json.loads(out)["entries"]:
            image = kalman_monodromy(fly_word, entry["power"])("b3")
            assert entry["mu_witness"] == {
                "length": image.length(),
                "poly": poly_to_str(image),
            }

    def test_audit_decided_by_word_count(self, capsys, monkeypatch):
        # mu^3(b3) for the fly 3 has 85 words under a size bound of 203: the
        # audit cap is compared with the word count, not with the bound
        _, fly_word = family_dga([3])
        image = kalman_monodromy(fly_word, 3)("b3")
        assert image.length() == 85 < image.size_bound()
        for cap, poly in ((85, poly_to_str(image)), (84, None)):
            monkeypatch.setattr(cli, "AUDIT_CAP", cap)
            _, out, _ = run_cli(capsys, "verdict", "--fly", "3", "--power", "3")
            (entry,) = json.loads(out)["entries"]
            assert entry["mu_witness"] == {"length": 85, "poly": poly}

    def test_fly_not_integers_is_usage_error(self, capsys):
        # an empty item is not an integer either
        for fly in ("3,x", "3,,7", "3,", ",3", ""):
            with pytest.raises(SystemExit) as exc:
                main(["verdict", "--fly", fly])
            assert exc.value.code == 2
            assert "--fly" in capsys.readouterr().err

    def test_fly_19(self, capsys):
        # its top slices are certified, so tau never expands
        status, out, _ = run_cli(capsys, "verdict", "--fly", "19")
        assert status == 0
        entries = json.loads(out)["entries"]
        assert [e["conclusion"] for e in entries] == ["nontrivial"] * 3

    def test_mu_witness_length_null_past_expansion_cap(self, capsys):
        # l(mu^3(b3)) is only bounded (6 280 036 > EXPANSION_CAP): the verdict
        # stands, the audit length is null
        status, out, _ = run_cli(capsys, "verdict", "--fly", "3,7", "--power", "3")
        assert status == 0
        (entry,) = json.loads(out)["entries"]
        assert entry["tau_value"] == 1566451
        assert entry["conclusion"] == "nontrivial"
        assert entry["mu_witness"] == {"length": None, "poly": None}

    def test_fly_3_7_power_4(self, capsys):
        # its top slice is certified, so tau never expands; tau is even
        status, out, err = run_cli(capsys, "verdict", "--fly", "3,7", "--power", "4")
        assert status == 1 and not err
        (entry,) = json.loads(out)["entries"]
        assert entry["tau_value"] == 1386308250
        assert entry["certificate_ok"] is True
        assert entry["conclusion"] == "inconclusive"


class TestVerify:
    def test_fibonacci(self, capsys):
        status, out, _ = run_cli(capsys, "verify", "fibonacci", "--max-n", "8")
        assert status == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["rows"][2]["lengths"] == [3, 2, 2, 1]

    def test_single_criterion(self, capsys):
        status, out, _ = run_cli(capsys, "verify", "trefoil")
        assert status == 0
        assert out.startswith("PASS")

    def test_emit_on_criterion_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "trefoil", "--emit", str(path)])
        assert exc.value.code == 2
        assert not path.exists()
