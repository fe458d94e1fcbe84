"""Command-line front end with canonical JSON pipelines.

Subcommands build torus-knot DGAs, extract tangles, form connected sums,
classify even d-class membership, run move scripts, evaluate monodromy
verdicts, and reproduce the acceptance tables.  All documents are schema-
tagged JSON (dga.v1, tangle.v1, script.v1, verdict.v1); `-` reads stdin.
`--manifest PATH` writes a manifest.v1 run record with the sha256 of every
file read and written; the digests are taken only then, and the documents
are the same with or without it.
Exit status: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time

from . import __version__
from .algebra import AlgebraError, ExpansionTooLarge, poly_from_str, poly_to_str
from .builders import (
    connect_sum,
    fibonacci_lengths,
    is_even_delta_class,
    path_matrix,
    tangle_from_knot,
    tangle_from_dict,
    tangle_to_dict,
    torus_knot_dga,
)
from .dga import DgaError, dga_from_dict, dga_to_dict, generator_from_dict, reading
from .moves import MoveScript, RII, RIIInv, RIIIa, RIIIb, Relabel, run_script
from .obstruction import family_verdicts
from .verify import CRITERIA

AUDIT_CAP = 200_000


# The canonical form of every document: sorted keys, indent 1, then "\n".
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ": "), indent=1)
# Longest piece of text encoded to bytes at once: a document's largest
# chunk is one polynomial string, as long as the document.
_PIECE = 1 << 16


class _Run:
    """Collects input/output digests for the run manifest.  Digests are
    taken only when a manifest is written: a plain run never loads
    hashlib, nor OpenSSL with it."""

    def __init__(self, argv, manifest):
        self.argv = argv
        self.manifest = manifest
        self.start = time.perf_counter()
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}

    def _digest(self):
        """A fresh sha256 when a manifest is written, else None."""
        if not self.manifest:
            return None
        import hashlib

        return hashlib.sha256()

    def read(self, path: str):
        if path == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                raw = fh.read()
        digest = self._digest()
        if digest is not None:
            digest.update(raw)
            self.inputs[path] = digest.hexdigest()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DgaError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
        del raw  # as large as the text: parse without holding both
        return json.loads(text)

    def emit(self, args, data) -> None:
        """Writes the canonical document chunk by chunk, hashing the bytes
        written to a file as they go when a manifest is written: the whole
        text is never held."""
        chunks = itertools.chain(_ENCODER.iterencode(data), "\n")
        path = getattr(args, "emit", None)
        if not path:
            sys.stdout.writelines(chunks)
            return
        digest = self._digest()
        with open(path, "wb") as fh:
            for chunk in chunks:
                for i in range(0, len(chunk), _PIECE):
                    raw = chunk[i : i + _PIECE].encode()
                    fh.write(raw)
                    if digest is not None:
                        digest.update(raw)
        if digest is not None:
            self.outputs[path] = digest.hexdigest()

    def write_manifest(self) -> None:
        if not self.manifest:
            return
        manifest = {
            "schema": "manifest.v1",
            "command": self.argv,
            "version": __version__,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "wall_time_s": round(time.perf_counter() - self.start, 6),
        }
        with open(self.manifest, "w") as fh:
            fh.write(_ENCODER.encode(manifest) + "\n")


def cmd_build(run: _Run, args) -> int:
    dga = torus_knot_dga(args.n)
    run.emit(args, dga_to_dict(dga))
    return 0


def cmd_tangle(run: _Run, args) -> int:
    dga = dga_from_dict(run.read(args.input))
    t = tangle_from_knot(dga, args.closure, args.prefix)
    run.emit(args, tangle_to_dict(t))
    return 0


def cmd_sum(run: _Run, args) -> int:
    tangles = [tangle_from_dict(run.read(path)) for path in args.inputs]
    dga = connect_sum(tangles, args.closure_name)
    run.emit(args, dga_to_dict(dga))
    return 0


def cmd_classify(run: _Run, args) -> int:
    dga = dga_from_dict(run.read(args.input))
    even, report = is_even_delta_class(dga)
    run.emit(args, {"schema": "classification.v1", "even_delta_class": even, "report": report})
    return 0 if even or not args.strict else 1


def cmd_word(run: _Run, args) -> int:
    t = tangle_from_dict(run.read(args.input))
    run.emit(args, {"schema": "word.v1", "word": poly_to_str(t.word), "length": t.word.length()})
    return 0


def _event_from_dict(entry: dict):
    kind = entry["type"]
    if kind == "RIIIa":
        return RIIIa()
    if kind == "RIIIb":
        return RIIIb(entry["x"], entry["y"], entry["z"])
    if kind == "RIIInv":
        return RIIInv(entry["x"], entry["y"])
    if kind == "Relabel":
        return Relabel(dict(entry["perm"]))
    if kind == "RII":
        return RII(
            generator_from_dict(entry["x"]),
            generator_from_dict(entry["y"]),
            {k: poly_from_str(v) for k, v in entry.get("new_differentials", {}).items()},
        )
    raise DgaError(f"unknown event type {kind!r}")


def cmd_script(run: _Run, args) -> int:
    doc = run.read(args.input)
    with reading(doc, "script.v1"):
        script = MoveScript(
            dga_from_dict(doc["initial"]),
            tuple(_event_from_dict(e) for e in doc["events"]),
            doc.get("mode", "verified"),
        )
    monodromy = run_script(script)
    run.emit(
        args,
        {
            "schema": "monodromy.v1",
            "map": {
                g: poly_to_str(img)
                for g, img in sorted(monodromy.map.normalized().items())
            },
        },
    )
    return 0


def summands(text: str) -> tuple[int, ...]:
    """The odd torus parameters of a comma-separated `--fly` value."""
    return tuple(int(x) for x in text.split(","))


def cmd_verdict(run: _Run, args) -> int:
    verdicts = family_verdicts(args.fly, args.power or (1, 2, 3), args.witness, args.marker)
    entries = []
    for j, v in verdicts.items():
        # null when counting the words would expand past EXPANSION_CAP
        try:
            length = v.image.length()
        except ExpansionTooLarge:
            length = None
        poly = poly_to_str(v.image) if length is not None and length <= AUDIT_CAP else None
        entries.append(
            {
                "power": j,
                "witness": v.witness,
                "marker": v.marker,
                "tau_value": v.tau_value,
                "certificate_ok": v.certificate_ok,
                "conclusion": v.conclusion,
                "mu_witness": {"length": length, "poly": poly},
            }
        )
    run.emit(args, {"schema": "verdict.v1", "fly": list(args.fly), "entries": entries})
    return 0 if all(e["conclusion"] == "nontrivial" for e in entries) else 1


def cmd_verify(run: _Run, args) -> int:
    if args.target == "fibonacci":
        rows = []
        ok = True
        for n in range(1, args.max_n + 1):
            want = fibonacci_lengths(n)
            got = path_matrix(n).lengths()
            ok = ok and got == want
            rows.append({"n": n, "lengths": list(got), "predicted": list(want)})
        run.emit(args, {"schema": "verify.v1", "target": "fibonacci", "ok": ok, "rows": rows})
        return 0 if ok else 1
    criteria = CRITERIA.values() if args.target == "all" else [CRITERIA[args.target]]
    all_ok = True
    for name, ok, details, elapsed in (fn() for fn in criteria):
        status = "PASS" if ok else "FAIL"
        all_ok = all_ok and ok
        print(f"{status} {name} ({elapsed:.3f}s): {details}")
    return 0 if all_ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs more
    than parsing, and main may run many times in one process."""
    parser = argparse.ArgumentParser(
        prog="legch",
        description="Exact Chekanov-Eliashberg DGA calculator for Legendrian "
        "knots in standard position.",
    )
    parser.add_argument("--version", action="version", version=f"legch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--emit", metavar="PATH", help="write output JSON to PATH")
        p.add_argument("--manifest", metavar="PATH", help="write a run manifest to PATH")

    p = sub.add_parser("build", help="build a knot DGA")
    p.add_argument("kind", choices=["torus"], help="knot family")
    p.add_argument("--n", type=int, required=True, help="torus parameter (odd, >= 3)")
    common(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("tangle", help="open a knot DGA at a closure crossing")
    p.add_argument("input", help="dga.v1 JSON path or -")
    p.add_argument("--closure", default="a2", help="closure crossing name")
    p.add_argument("--prefix", default="", help="namespace prefix for the tangle")
    common(p)
    p.set_defaults(fn=cmd_tangle)

    p = sub.add_parser("sum", help="connected sum of tangles")
    p.add_argument("inputs", nargs="+", help="tangle.v1 JSON paths")
    p.add_argument("--closure-name", default="a", help="name of the fresh closure crossing")
    common(p)
    p.set_defaults(fn=cmd_sum)

    p = sub.add_parser("classify", help="even d-class test")
    p.add_argument("input", help="dga.v1 JSON path or -")
    p.add_argument("--strict", action="store_true", help="exit 1 when not of even d-class")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("word", help="associated word of a tangle")
    p.add_argument("input", help="tangle.v1 JSON path or -")
    common(p)
    p.set_defaults(fn=cmd_word)

    p = sub.add_parser("script", help="move script operations")
    script_sub = p.add_subparsers(dest="script_command", required=True)
    pr = script_sub.add_parser("run", help="run a script.v1 file and emit its monodromy")
    pr.add_argument("input", help="script.v1 JSON path or -")
    common(pr)
    pr.set_defaults(fn=cmd_script)

    p = sub.add_parser("verdict", help="tau-parity verdicts for Kalman loop powers")
    p.add_argument(
        "--fly", type=summands, required=True, help="comma-separated odd torus parameters"
    )
    p.add_argument(
        "--power",
        type=int,
        action="append",
        default=None,
        help="loop power j (repeatable; default 1,2,3)",
    )
    p.add_argument("--witness", default="b3")
    p.add_argument("--marker", default="b3")
    common(p)
    p.set_defaults(fn=cmd_verdict)

    p = sub.add_parser("verify", help="reproduce the acceptance tables")
    p.add_argument(
        "target",
        nargs="?",
        default="all",
        choices=["all", "fibonacci", *CRITERIA],
        help="all, fibonacci, or a criterion name",
    )
    p.add_argument("--max-n", type=int, default=20, help="upper n for the fibonacci table")
    common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    args = parser.parse_args(argv)
    if args.fn is cmd_verify and args.emit and args.target != "fibonacci":
        parser.error("--emit applies only to `verify fibonacci`")
    run = _Run(["legch"] + argv, args.manifest)
    try:
        status = args.fn(run, args)
    except (DgaError, AlgebraError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run.write_manifest()
    return status


if __name__ == "__main__":
    sys.exit(main())
