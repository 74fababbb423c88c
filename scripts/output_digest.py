#!/usr/bin/env python3
"""Print one SHA-256 line per default CLI output, to check outputs are unchanged.

The outputs are the ones the byte-identical rule protects: the `threshold`
sweeps (single Fock n=1..6 and two weighted witnesses, to level 12, all
solved in double), `cf --example` for the stock models, and the Torpedo
values at d=2 and d=3.  Two more lines hash the
`--emit-sdpa` file of `threshold --n 3` at levels 8 and 12: the upper
program as solved, in the Laguerre parity-block basis, at a sweep level and
at a deep one.  Two checkouts give the same outputs exactly when their
digests match:

    PYTHONPATH=src python3 scripts/output_digest.py > new.txt
    PYTHONPATH=/path/to/other/src python3 scripts/output_digest.py > old.txt
    diff old.txt new.txt

Each line is `<sha256 of stdout>  exit=<code>  <arguments>`; for the emitted
files it is the hash of the file, and the arguments end in `--emit-sdpa FILE`.
A run takes about 6 s on a 2-core machine.

A hash says that an output moved, not by how much.  `--values DIR` also
writes each output to a file in DIR, and `--compare OLD NEW` reads two such
directories and prints, per output, how many of its numbers moved and the
largest |change| among them:

    PYTHONPATH=src python3 scripts/output_digest.py --values new > new.txt
    PYTHONPATH=/path/to/other/src python3 scripts/output_digest.py --values old > old.txt
    python3 scripts/output_digest.py --compare old new

Each compare line is `<moved>/<numbers>  max|d|=<largest change>  <arguments>`;
it says `text differs` when the two outputs differ outside their numbers.
"""

import argparse
import contextlib
import hashlib
import io
import math
import os
import re
import tempfile

M_MAX = "12"


def commands():
    for n in range(1, 7):
        yield ["threshold", "--n", str(n), "--m-max", M_MAX]
    for weights in ("1,1", "0.5,0,1"):
        yield ["threshold", "--weights", weights, "--m-max", M_MAX]
    for model in ("chsh", "pr_box", "hardy", "identity_mix"):
        yield ["cf", "--example", model]
    for mode in ("classical", "ncf", "quantum"):
        for d in ("2", "3"):
            yield ["torpedo", "--d-in", d, "--d-msg", d, "--mode", mode]


def emit_commands():
    for m_max in ("8", "12"):
        yield ["threshold", "--n", "3", "--m-max", m_max, "--emit-sdpa"]


def _file_name(argv) -> str:
    return "_".join(argv).replace("/", "") + ".txt"


def run(values_dir=None):
    from negwit import cli  # here, so that --compare runs without negwit

    def record(argv, data: bytes, code: int):
        print(f"{hashlib.sha256(data).hexdigest()}  exit={code}  {' '.join(argv)}",
              flush=True)
        if values_dir is not None:
            with open(os.path.join(values_dir, _file_name(argv)), "wb") as fh:
                fh.write(data)

    for argv in commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        record(argv, out.getvalue().encode(), code)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "upper.dat-s")
        for argv in emit_commands():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + [path])
            with open(path, "rb") as fh:
                record(argv + ["FILE"], fh.read(), code)


_NUMBER = re.compile(
    r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\b(?:nan|inf(?:inity)?)\b",
    re.IGNORECASE,
)


def moved_numbers(old: str, new: str):
    """(moved, numbers, largest |change|, whether the text outside them differs)."""
    old_nums, new_nums = _NUMBER.findall(old), _NUMBER.findall(new)
    text_differs = _NUMBER.split(old) != _NUMBER.split(new)
    moved, largest = 0, 0.0
    for a, b in zip(map(float, old_nums), map(float, new_nums)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        moved += 1
        largest = max(largest, abs(a - b) if math.isfinite(a - b) else math.inf)
    return moved, len(old_nums), largest, text_differs


def compare(old_dir: str, new_dir: str):
    argvs = [*commands(), *(argv + ["FILE"] for argv in emit_commands())]
    for argv in argvs:
        texts = []
        for d in (old_dir, new_dir):
            with open(os.path.join(d, _file_name(argv))) as fh:
                texts.append(fh.read())
        moved, total, largest, text_differs = moved_numbers(*texts)
        note = "  text differs" if text_differs else ""
        print(f"{moved}/{total}  max|d|={largest:.3g}{note}  {' '.join(argv)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--values", metavar="DIR",
                      help="also write each output to a file in DIR")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                      help="count the moved numbers between two --values directories")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if args.values is not None:
        os.makedirs(args.values, exist_ok=True)
    run(args.values)


if __name__ == "__main__":
    main()
