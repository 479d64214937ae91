"""Command-line surface: evaluate kernels and bases, run verification, demo KRR.

Exit codes: 0 success, 1 verification failure or numeric error, 2 usage
error.  All output is deterministic given the flags; CSV uses 17
significant digits so values round-trip.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ._lowrank import chunks
from .featuremap import FAMILIES, ConditioningError, FeatureMapSpec, features, krr_fit_predict
from .verify import DEFAULT_SEED, SUITE_NAMES, run_suite

__all__ = ["main"]


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:count (inclusive ends), got {spec!r}"
        )
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    return np.linspace(start, stop, count)


def _parse_m_range(spec: str) -> list[int]:
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(spec)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"--m must be an int or lo..hi, got {spec!r}")


def _emit(columns: dict, fmt: str, out_path: str | None) -> None:
    """Write equal-length columns as csv or json lines; numbers are written
    with 17 significant digits, strings as they are."""
    names = list(columns)
    rows = len(next(iter(columns.values())))
    lines = [",".join(names)] if fmt == "csv" else []
    for i in range(rows):
        row = [columns[c][i] for c in names]
        if fmt == "csv":
            lines.append(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row))
        else:
            lines.append(json.dumps(
                {c: v if isinstance(v, str) else float(v) for c, v in zip(names, row)}))
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the class whose columns --what basis gives when --class is not set
_DEFAULT_CLASS = {"matern": "plus", "cauchy": "alpha", "gaussian": "psi"}


def _basis_columns(args, grid: np.ndarray) -> dict[str, np.ndarray]:
    """Columns of the features block at n = max(m) + 1, taken by the names
    of ``index_labels()``; a requested name that is not among them (null
    index above nu, a class the family does not have, a negative index) is
    a usage error.  Only the requested columns are kept from each chunk of
    points, so memory does not grow with the block's width times the grid."""
    spec = _spec(args, max(max(args.m), 0) + 1)
    index = {label: i for i, label in enumerate(spec.index_labels())}
    klass = args.klass or _DEFAULT_CLASS[args.family]
    names = [f"{klass}_{m}" for m in args.m]
    for name in names:
        if name not in index:
            raise ValueError(f"--family {args.family} has no basis column {name}")
    keep = [index[name] for name in names]
    block = np.concatenate([features(spec, grid[s])[:, keep] for s in chunks(grid.size)])
    return {"t": grid, **dict(zip(names, block.T))}


def _spec(args, n: int) -> FeatureMapSpec:
    return FeatureMapSpec(
        family=args.family,
        lam=args.lam,
        n=n,
        nu=args.nu if args.family == "matern" else None,
    )


def _cmd_eval(args) -> int:
    grid = args.grid
    if not np.all(np.isfinite(grid)):
        raise ValueError("--grid points must be finite")
    if args.what == "basis":
        cols = _basis_columns(args, grid)
    elif args.what == "kernel":
        cols = {"t": grid, "kernel": _spec(args, args.n).kernel(grid, args.u)}
    else:  # truncated
        truncated = _spec(args, args.n).truncated_kernel(grid, args.u)
        cols = {"t": grid, f"truncated_n{args.n}": truncated}
    _emit(cols, args.format, args.out)
    return 0


def _cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.seed)
    lines = [json.dumps(r.to_dict(), sort_keys=False) for r in reports]
    if args.report:
        with open(args.report, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    n_failed = 0
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.check_name} (error {r.abs_error:.3e}, tol {r.tolerance:.3e})")
        if not r.passed:
            n_failed += 1
            print(f"failed: {r.check_name}", file=sys.stderr)
    print(f"{len(reports) - n_failed}/{len(reports)} checks passed")
    return 0 if n_failed == 0 else 1


def _cmd_demo_krr(args) -> int:
    rng = np.random.default_rng(args.seed)
    train_x = np.sort(rng.uniform(-3.0, 3.0, size=40))
    noise = 0.1 * rng.standard_normal(40)
    train_y = np.sin(2.0 * train_x) + noise
    test_x = np.linspace(-3.0, 3.0, 200)
    test_y = np.sin(2.0 * test_x)
    spec = _spec(args, args.n)
    pred, pred_train = np.split(
        krr_fit_predict(spec, train_x, train_y, args.ridge, np.concatenate([test_x, train_x])),
        [test_x.size],
    )
    # dense full-kernel ridge reference on the same data
    K = spec.kernel(train_x[:, None], train_x[None, :])
    Kt = spec.kernel(test_x[:, None], train_x[None, :])
    dual = np.linalg.solve(K + args.ridge * np.eye(len(train_x)), train_y)
    full_pred = Kt @ dual
    full_train = K @ dual

    def rmse(a, b):
        return float(np.sqrt(np.mean((a - b) ** 2)))

    cols = {
        "metric": ["train_rmse", "test_rmse", "full_train_rmse", "full_test_rmse",
                   "max_abs_pred_diff"],
        "value": [
            rmse(pred_train, train_y),
            rmse(pred, test_y),
            rmse(full_train, train_y),
            rmse(full_pred, test_y),
            float(np.max(np.abs(pred - full_pred))),
        ],
    }
    _emit(cols, args.format, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelbasis",
        description="orthonormal kernel expansions: evaluation, verification, KRR demo",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="emit kernel/basis/truncated values on a grid")
    p_eval.add_argument("--family", choices=FAMILIES, required=True)
    p_eval.add_argument("--nu", type=int, default=0, help="Matern smoothness index")
    p_eval.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_eval.add_argument("--what", choices=("kernel", "basis", "truncated"), required=True)
    p_eval.add_argument("--class", dest="klass", default=None,
                        choices=("plus", "minus", "null", "alpha", "beta"))
    p_eval.add_argument("--m", type=_parse_m_range, default=[0], help="index or lo..hi")
    p_eval.add_argument("--n", type=int, default=8, help="truncation level")
    p_eval.add_argument("--grid", type=_parse_grid, required=True, help="start:stop:count")
    p_eval.add_argument("--u", type=float, default=0.0, help="second kernel argument")
    p_eval.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--report", default=None, help="write json-lines report here")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.set_defaults(func=_cmd_verify)

    p_demo = sub.add_parser("demo-krr", help="reduced-rank vs full-kernel ridge regression")
    p_demo.add_argument("--family", choices=FAMILIES, default="gaussian")
    p_demo.add_argument("--nu", type=int, default=1)
    p_demo.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_demo.add_argument("--n", type=int, default=64)
    p_demo.add_argument("--ridge", type=float, default=1e-3)
    p_demo.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_demo.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_demo.add_argument("--out", default=None)
    p_demo.set_defaults(func=_cmd_demo_krr)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse refuses values like "-1:6:701"; splice them onto the flag
    merged, i = [], 0
    while i < len(argv):
        if argv[i] == "--grid" and i + 1 < len(argv):
            merged.append(f"--grid={argv[i + 1]}")
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    parser = _build_parser()
    args = parser.parse_args(merged)
    try:
        return args.func(args)
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (ConditioningError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
