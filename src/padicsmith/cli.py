"""Command line front end: analyze, density, transform, verify.

Exit codes: `analyze` returns 0 when the matrix is p-correspondent and
1 when it is not; `verify` returns 0 only if every check passes; any
usage, parse, or budget error returns 2.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from itertools import groupby
from pathlib import Path

from .classify import analyze
from .density import (
    CSV_HEADER,
    DEFAULT_BUDGET,
    Convention,
    _box_size,
    _box_tally,
    enumerate_density,
    gl_count,
    orbit_stabilizer_check,
)
from .exact import (
    BudgetExceededError,
    IntMatrix,
    MatrixParseError,
    UnsupportedSizeError,
    _require_prime,
    det,
    parse_matrix,
    val_p,
    valuation_to_json,
)
from .transform import (
    AttemptsExhaustedError,
    sample_correspondent,
    single_attempt_success_rate,
    verify_rem_stability,
)

REM_STABILITY_PRIMES = (2, 3, 5)

ORBIT_CELLS = ((2, 1, (0, 0)), (3, 1, (0, 0)), (2, 2, (0, 1)))


def _load_matrix(path: str) -> IntMatrix:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_matrix(text)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _fmt_val(v) -> str:
    return str(valuation_to_json(v))


def _print_matrix(label: str, A: IntMatrix) -> None:
    print(f"{label}:")
    for line in A.to_text().splitlines():
        print(f"  {line}")


def cmd_analyze(args: argparse.Namespace) -> int:
    A = _load_matrix(args.matrix)
    rep = analyze(A, args.prime)
    if args.format == "json":
        print(json.dumps(rep.to_json_obj(), indent=2))
        return 0 if rep.p_correspondent else 1

    print(f"p = {rep.p}, n = {rep.n}, rank = {rep.rank}")
    if rep.rank:
        print("  i  val(f_i)  val(delta_i)  e_i")
        for i in range(rep.rank):
            print(
                f"  {i + 1}  {_fmt_val(rep.f_vals[i]):>8}  "
                f"{rep.delta_vals[i]:>12}  {rep.profile[i]:>3}"
            )
    if rep.eig_vals.values:
        # the sorted valuations are the polygon's slopes with multiplicity:
        # each run of one value is one segment, its length the run length
        slopes = ", ".join(
            f"{s} x{len(list(run))}" for s, run in groupby(rep.eig_vals.values)
        )
        print(f"newton polygon slopes: {slopes}")
    vals = ", ".join(str(v) for v in rep.eig_vals.values) or "(none)"
    print(f"eigenvalue valuations: {vals} (zero eigenvalues: {rep.eig_vals.zero_count})")
    print(f"p-characterized: {_yesno(rep.p_characterized)}")
    print(f"p-correspondent: {_yesno(rep.p_correspondent)}")
    return 0 if rep.p_correspondent else 1


def cmd_density(args: argparse.Namespace) -> int:
    convention = Convention(args.convention)
    row = enumerate_density(
        args.prime,
        args.m,
        args.n,
        convention=convention,
        threads=args.threads,
        budget=args.budget,
    )
    if args.format == "json":
        print(json.dumps(row.to_json_obj(), indent=2))
    elif args.format == "csv":
        print(CSV_HEADER)
        print(row.csv_row())
    else:
        pc, pr, mn = row.rendered()
        print(f"p={row.p} m={row.m} n={row.n} convention={convention.value}")
        print(f"  p-characterized: {pc}%  ({row.char_count}/{row.total})")
        print(f"  p-correspondent: {pr}%  ({row.corr_count}/{row.total})")
        print(f"  min class p-characterized: {mn}%")
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    A = _load_matrix(args.matrix)
    seed = args.seed
    if seed is None:
        seed = random.SystemRandom().randrange(2**32)
    sample = sample_correspondent(
        A, args.prime, bound=args.bound, max_attempts=args.max_attempts, seed=seed
    )
    if args.format == "json":
        obj = sample.to_json_obj()
        obj["seed"] = seed
        print(json.dumps(obj, indent=2))
        return 0
    print(f"p: {sample.p}")
    print(f"seed: {seed}")
    print(f"bound: {sample.bound}")
    print(f"attempts: {sample.attempts}")
    _print_matrix("U", sample.U)
    _print_matrix("V", sample.V)
    _print_matrix("UAV", sample.result)
    print(f"profile: {list(sample.report.profile)}")
    print(f"p-characterized: {_yesno(sample.report.p_characterized)}")
    print(f"p-correspondent: {_yesno(sample.report.p_correspondent)}")
    return 0


def _check_theorem1(args: argparse.Namespace) -> list[tuple[bool, str]]:
    p, m, n = args.p or 2, args.m or 1, args.n or 2
    _require_prime(p)
    total = _box_size(p, m, n, args.budget)
    head = f"theorem1 p={p} m={m} n={n}"
    try:
        weight = sum(_box_tally(p, m, n).values())
    except AssertionError as exc:
        return [(False, f"{head}: counterexample found ({exc})")]
    if weight != total:
        return [(False, f"{head}: representative weights sum to {weight}, expected {total} matrices")]
    return [(True, f"{head}: {total} matrices, 0 characterized-but-not-correspondent")]


def _check_gl_ratio(args: argparse.Namespace) -> list[tuple[bool, str]]:
    checks = []
    primes = [args.p] if args.p else [2, 3, 5, 7, 11]
    for p in primes:
        for m in range(1, (args.m or 3) + 1):
            for n in range(1, (args.n or 4) + 1):
                rep = gl_count(p, m, n)
                tag = "exhaustive+closed-form" if rep.exhaustive_checked else "closed-form"
                line = f"gl-ratio p={p} m={m} n={n}: ratio={rep.ratio} ({tag})"
                if not rep.ok:
                    line += f", exhaustive count {rep.exhaustive_count} != closed form {rep.order}"
                checks.append((rep.ok and rep.ratio < 4, line))
    return checks


def _check_rem_stability(args: argparse.Namespace) -> list[tuple[bool, str]]:
    trials = args.trials or 200
    rng = random.Random(args.seed or 0)
    checks = []
    primes = [args.p] if args.p else list(REM_STABILITY_PRIMES)
    for p in primes:
        bad = 0
        done = 0
        while done < trials:
            n = args.n or rng.randrange(2, 5)
            A = IntMatrix.from_rows(
                [[rng.randrange(-100, 101) for _ in range(n)] for _ in range(n)]
            )
            d = det(A)
            if d == 0:
                continue
            m = val_p(d, p) + 1
            rep = verify_rem_stability(A, p, m)
            bad += not rep.ok
            done += 1
        checks.append((bad == 0, f"rem-stability p={p}: {trials} trials, {bad} violations"))
    return checks


def _check_lemma33(args: argparse.Namespace) -> list[tuple[bool, str]]:
    p = args.p or 101
    rep = single_attempt_success_rate(
        args.n or 3, p, args.bound or p, args.trials or 1000, args.seed or 0
    )
    return [
        (
            rep.ok,
            f"lemma33 p={p} n={rep.n} bound={rep.bound}: {rep.successes}/{rep.trials} "
            f"successes, rate {Fraction(rep.successes, rep.trials)} vs floor {rep.floor} - 3sigma",
        )
    ]


def _check_orbit(args: argparse.Namespace) -> list[tuple[bool, str]]:
    if args.p or args.m or args.n:
        raise ValueError("the orbit suite runs its fixed cells and takes no --p, --m or --n")
    checks = []
    for p, m, exponents in ORBIT_CELLS:
        rep = orbit_stabilizer_check(p, m, exponents, budget=args.budget)
        checks.append(
            (
                rep.ok,
                f"orbit p={p} m={m} e={list(exponents)}: class size {rep.class_size}, "
                f"{rep.pair_count_per_member} pairs per member",
            )
        )
    return checks


VERIFY_SUITES = {
    "theorem1": _check_theorem1,
    "gl-ratio": _check_gl_ratio,
    "rem-stability": _check_rem_stability,
    "lemma33": _check_lemma33,
    "orbit": _check_orbit,
}


def cmd_verify(args: argparse.Namespace) -> int:
    checks = VERIFY_SUITES[args.suite](args)
    for ok, line in checks:
        print(f"{'PASS' if ok else 'FAIL'} {line}")
    return 0 if all(ok for ok, _ in checks) else 1


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicsmith",
        description="Exact p-adic invariants of integer matrices.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    pa = sub.add_parser("analyze", help="classify one matrix at one prime")
    pa.add_argument("matrix", help="matrix file (JSON or whitespace text), - for stdin")
    pa.add_argument("-p", "--prime", type=int, required=True)
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.set_defaults(func=cmd_analyze)

    pd = sub.add_parser("density", help="exhaustive density of one (p, m, n) cell")
    pd.add_argument("-p", "--prime", type=int, required=True)
    pd.add_argument("-m", type=int, required=True)
    pd.add_argument("-n", type=int, required=True)
    pd.add_argument(
        "--convention",
        choices=tuple(c.value for c in Convention),
        default=Convention.ALL.value,
    )
    pd.add_argument("--format", choices=("text", "csv", "json"), default="text")
    pd.add_argument("--threads", type=positive_int, default=1)
    pd.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    pd.set_defaults(func=cmd_density)

    pt = sub.add_parser("transform", help="sample unimodular U, V making UAV p-characterized")
    pt.add_argument("matrix", help="matrix file, - for stdin")
    pt.add_argument("-p", "--prime", type=int, required=True)
    pt.add_argument("--bound", type=int, default=None, help="entry range, multiple of p")
    pt.add_argument("--seed", type=int, default=None, help="generated and logged when omitted")
    pt.add_argument("--max-attempts", type=positive_int, default=64)
    pt.add_argument("--format", choices=("text", "json"), default="text")
    pt.set_defaults(func=cmd_transform)

    pv = sub.add_parser("verify", help="run one property suite, one PASS/FAIL line per check")
    pv.add_argument(
        "--suite",
        choices=tuple(VERIFY_SUITES),
        required=True,
        help="theorem1 decides both predicates for every matrix of the (p, m, n) box, n <= 6, if it fits --budget",
    )
    # omitted means the suite's default; an explicit 0 or negative exits 2
    for flag in ("--p", "--m", "--n", "--bound", "--trials"):
        pv.add_argument(flag, type=positive_int, default=None)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AttemptsExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        MatrixParseError,
        UnsupportedSizeError,
        BudgetExceededError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
