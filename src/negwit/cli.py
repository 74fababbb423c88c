"""Batch command-line front end: CSV/JSON outputs for every computation.

Deterministic by construction: fixed 12-significant-digit decimal
formatting, stable key order, no timestamps.  Exit codes: 0 success,
1 bad input, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import conic, contextuality, states, torpedo, witness


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return f"{x:.11e}"


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_json(args, payload) -> None:
    _write(getattr(args, "out", None), json.dumps(payload, indent=1) + "\n")


def weight_list(text: str) -> tuple:
    """The --weights value: comma-separated floats.  argparse names the
    option when a float does not parse."""
    return tuple(float(v) for v in text.split(","))


def _weights_from_args(args, alpha=0j):
    # argparse takes exactly one of --n and --weights
    if args.n is not None:
        return witness.WitnessSpec.fock(args.n, alpha=alpha)
    return witness.WitnessSpec(a=args.weights, alpha=alpha)


def cmd_threshold(args) -> int:
    spec = _weights_from_args(args)
    rows = witness.threshold_bounds(spec, m_max=args.m_max, tol=args.tol)
    if args.emit_sdpa:
        # the top-level upper program as solved; with no levels to solve the
        # builder rejects m_max as bad input
        prob = witness.build_upper_compact(spec, args.m_max)
        with open(args.emit_sdpa, "w") as fh:
            fh.write(conic.export_sdpa(prob))
    lines = ["m,lower,upper"]
    for r in rows:
        lines.append(f"{r.level},{_fmt(r.lower)},{_fmt(r.upper)}")
    _write(args.out, "\n".join(lines) + "\n")
    if all(math.isnan(r.lower) and math.isnan(r.upper) for r in rows):
        return 2
    return 0


def cmd_witness(args) -> int:
    state = states.parse_state(args.state)
    spec = _weights_from_args(args, args.alpha)
    if not math.isfinite(args.threshold_upper):
        raise ValueError("--threshold-upper must be finite")
    expectation = states.witness_expectation(state, spec)
    delta = states.violation_and_distance(expectation, args.threshold_upper)
    payload = {
        "state": args.state,
        "weights": list(spec.a),
        "alpha": [spec.alpha.real, spec.alpha.imag],
        "threshold_upper": args.threshold_upper,
        "expectation": float(f"{expectation:.12g}"),
        "delta": None if delta is None else float(f"{delta:.12g}"),
        "distance_lower_bound": None if delta is None else float(f"{delta:.12g}"),
    }
    _emit_json(args, payload)
    return 0


def cmd_cf(args) -> int:
    # argparse takes exactly one of --example and --model-file
    if args.example is not None:
        model = contextuality.example_model(args.example)
    else:
        with open(args.model_file) as fh:
            model = contextuality.EmpiricalModel.from_json(fh.read())
    n, _, form = contextuality._noncontextual_lp(model)
    payload = {
        "ncf": float(f"{n:.12g}"),
        "cf": float(f"{1.0 - n:.12g}"),
        "bell_form": {
            "coefficients": [float(f"{v:.12g}") for v in form.coefficients],
            "bound": 0.0,
            "norm": float(f"{form.norm():.12g}"),
        },
        "violation": float(f"{form.normalised_violation(model):.12g}"),
    }
    _emit_json(args, payload)
    return 0


def cmd_torpedo(args) -> int:
    d_in, d_msg = args.d_in, args.d_msg
    game = torpedo.TorpedoGame(d_in)
    if args.mode != "classical" and d_msg != d_in:
        raise ValueError(f"{args.mode} mode uses message dimension d_in")
    payload = {"d_in": d_in, "d_msg": d_msg, "mode": args.mode}
    if args.mode == "classical":
        value = torpedo.classical_value(d_in, d_msg)
        payload["value"] = float(value)
        payload["value_exact"] = str(value)
    elif args.mode == "quantum":
        strat = torpedo.canonical_quantum_strategy(d_in)
        value = torpedo.win_rate(torpedo.behaviour_of_quantum(strat, game), game)
        payload["value"] = float(f"{value:.12g}")
    else:  # ncf
        strat = torpedo.canonical_quantum_strategy(d_in)
        beh = torpedo.behaviour_of_quantum(strat, game)
        ncf = torpedo.bounded_memory_ncf(beh, d_in)
        eps = torpedo.average_failure(beh, game)
        nu = 1.0 - float(torpedo.classical_value(d_in, d_in))
        payload.update(
            {
                "ncf": float(f"{ncf:.12g}"),
                "epsilon": float(f"{eps:.12g}"),
                "nu": float(f"{nu:.12g}"),
                "bound_holds": bool(eps + 1e-9 >= ncf * nu),
            }
        )
    _emit_json(args, payload)
    return 0


def cmd_plotdata(args) -> int:
    fig = args.figure
    lines = []
    if fig == "pssvs":
        lines.append("r,fidelity,upper_bound")
        for i in range(0, 151):
            r = i / 100.0
            f = states.pssvs_fidelity(r)
            lines.append(f"{_fmt(r)},{_fmt(f)},{_fmt(0.5)}")
    elif fig == "cat2":
        lines.append("alpha_sq,fidelity,upper_bound")
        for i in range(1, 401):
            a2 = i / 100.0
            lines.append(f"{_fmt(a2)},{_fmt(states.cat2_fidelity(a2))},{_fmt(0.5)}")
    elif fig == "cat4":
        lines.append("alpha_sq,fidelity,upper_bound")
        for i in range(1, 801):
            a2 = i / 100.0
            lines.append(f"{_fmt(a2)},{_fmt(states.cat4_fidelity(a2))},{_fmt(0.441)}")
    elif fig == "lossy3":
        lines.append("eta,fidelity3,delta_naive")
        for i in range(0, 101):
            eta = i / 100.0
            f3 = (1.0 - eta) ** 3
            lines.append(f"{_fmt(eta)},{_fmt(f3)},{_fmt(f3 - 0.427)}")
    else:  # threshold
        lines.append("n,lower,upper")
        table = witness.fock_bounds_table(range(1, args.n_max + 1), m_max=args.m_max)
        for n in range(1, args.n_max + 1):
            lo, up = table[n]
            lines.append(f"{n},{_fmt(lo)},{_fmt(up)}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="negwit",
        description="Nonclassicality certification: negativity witnesses, "
        "contextual fractions, Torpedo-game values.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="witness threshold bound hierarchies")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int, help="single Fock witness index")
    g.add_argument("--weights", type=weight_list, help="comma-separated weights a_1..a_n")
    # no --alpha: thresholds are displacement invariant
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default="-")
    p.add_argument(
        "--emit-sdpa", help="also write the top-level upper program as solved (.dat-s)"
    )
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("witness", help="witness expectation for a named state")
    p.add_argument("--state", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--weights", type=weight_list)
    p.add_argument("--alpha", type=complex, default=0j)
    p.add_argument("--threshold-upper", type=float, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("cf", help="contextual fraction of an empirical model")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--model-file")
    g.add_argument("--example", choices=("chsh", "pr_box", "hardy", "identity_mix"))
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_cf)

    p = sub.add_parser("torpedo", help="Torpedo game values")
    p.add_argument("--d-in", type=int, required=True)
    p.add_argument("--d-msg", type=int, required=True)
    p.add_argument("--mode", choices=("classical", "quantum", "ncf"), required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_torpedo)

    p = sub.add_parser("plotdata", help="CSV curves for the worked examples")
    p.add_argument(
        "--figure",
        choices=("pssvs", "cat2", "cat4", "lossy3", "threshold"),
        required=True,
    )
    p.add_argument("--m-max", type=int, default=30)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_plotdata)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
