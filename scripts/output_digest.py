#!/usr/bin/env python3
"""Print one SHA-256 line per default CLI output, to check outputs are unchanged.

The outputs are the ones the byte-identical rule protects: the `threshold`
sweeps (single Fock n=1..6 and two weighted witnesses, to level 12, where
the lower side's first extended retry appears), `cf --example` for the stock
models, and the Torpedo values at d=2 and d=3.  Two more lines hash the
`--emit-sdpa` file of `threshold --n 3` at levels 8 and 12: the upper
program as solved, in the Laguerre parity-block basis, at a sweep level and
at a deep one.  Two checkouts give the same outputs exactly when their
digests match:

    PYTHONPATH=src python3 scripts/output_digest.py > new.txt
    PYTHONPATH=/path/to/other/src python3 scripts/output_digest.py > old.txt
    diff old.txt new.txt

Each line is `<sha256 of stdout>  exit=<code>  <arguments>`; for the emitted
files it is the hash of the file, and the arguments end in `--emit-sdpa FILE`.
A run takes 15 to 30 s on a 2-core machine.
"""

import contextlib
import hashlib
import io
import os
import tempfile

from negwit import cli

M_MAX = "12"


def commands():
    for n in range(1, 7):
        yield ["threshold", "--n", str(n), "--m-max", M_MAX]
    for weights in ("1,1", "0.5,0,1"):
        for precision in ("auto", "double", "extended"):
            yield [
                "--precision", precision,
                "threshold", "--weights", weights, "--m-max", M_MAX,
            ]
    for model in ("chsh", "pr_box", "hardy", "identity_mix"):
        yield ["cf", "--example", model]
    for mode in ("classical", "ncf", "quantum"):
        for d in ("2", "3"):
            yield ["torpedo", "--d-in", d, "--d-msg", d, "--mode", mode]


def emit_commands():
    for m_max in ("8", "12"):
        yield ["threshold", "--n", "3", "--m-max", m_max, "--emit-sdpa"]


def main():
    for argv in commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        print(f"{digest}  exit={code}  {' '.join(argv)}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "upper.dat-s")
        for argv in emit_commands():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + [path])
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{digest}  exit={code}  {' '.join(argv)} FILE", flush=True)


if __name__ == "__main__":
    main()
