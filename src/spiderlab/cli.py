"""Command-line front end.

Subcommands: simulate | exact | verify | clt | converge.  Common flags
--seed, --threads, --format json|csv, --out PATH, --config PATH, each only
where it is read: verify takes no --threads or --format (its report is
text), and exact, which is deterministic, only --format and --out.  A
config file holds only fields its subcommand reads (``CONFIG_FIELDS``);
clt and converge take --model or --p, not both.

Exit codes: 0 ok, 1 runtime failure, 2 usage or config error, 3
verification failure.  A run resolves and validates its whole
configuration before it echoes it and starts work, so every usage or
config error (a bad or wrongly typed flag or file value, a nan or inf,
a non-integer count, --threads < 1, clt with fewer than 10 replicates)
exits 2 with "config error" before any replicate runs; any error raised
after the echo exits 1 with "runtime error".

Every run prints its fully resolved configuration, including the effective
seed (verify draws none: it echoes a given seed, or null), as one JSON line
on stderr; re-running with that configuration reproduces the output byte
for byte.  Data goes to --out when given, stdout otherwise.  CSV column
sets are fixed per subcommand and never vary with flags.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import secrets
import sys
from fractions import Fraction
from pathlib import Path

from .analytics import moment_catalog, oracle_mean_variance
from .indices import NAMED_INDICES, parse_index
from .montecarlo import (
    KS_MIN_SAMPLES,
    SimConfig,
    atom_stats,
    convergence_probe,
    ks_normal,
    run_experiment,
    standardize,
)
from .tree import Preferential, UniformLeaf

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3

DIAG_HEADER = ["index", "n", "p", "mean", "var", "ks", "exceedance", "r_mean_error", "limit"]
SIMULATE_HEADER = ["index", "n", "p", "replicates", "mean", "variance"]
EXACT_HEADER = ["index", "n", "p", "mean", "variance", "oracle_mean", "oracle_variance", "match"]

ORACLE_MATCH_RTOL = 4.4e-16 + 2.0 ** -53  # float oracle's stated accuracy + catalog's rounding

DEFAULT_INDICES = ",".join(spec.name for spec in NAMED_INDICES)

CONFIG_FIELDS = {
    "simulate": ("model", "horizon", "replicates", "master_seed", "indices"),
    "verify": ("master_seed",),
    "clt": ("replicates", "master_seed"),
    "converge": ("replicates", "master_seed"),
}


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""


def _parse_probability(text: str):
    text = text.strip()
    try:
        value = Fraction(text) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"field 'p' must be a probability, got {text!r}") from None
    if not 0 < value < 1:
        raise ConfigError(f"field 'p' must lie strictly between 0 and 1, got {text!r}")
    return value


def _parse_model(text: str):
    if not isinstance(text, str):
        raise ConfigError(f"field 'model' must be 'uniform:<p>' or 'preferential', got {text!r}")
    text = text.strip().lower()
    if text == "preferential":
        return Preferential()
    if text.startswith("uniform:"):
        return UniformLeaf(float(_parse_probability(text.split(":", 1)[1])))
    raise ConfigError(f"field 'model' must be 'uniform:<p>' or 'preferential', got {text!r}")


def _parse_indices(text):
    if isinstance(text, (list, tuple)) and all(isinstance(name, str) for name in text):
        text = ",".join(text)
    if not isinstance(text, str):
        raise ConfigError(f"field 'indices' must be a comma list or a list of names, got {text!r}")
    names = [part for part in text.split(",") if part.strip()]
    if not names:
        raise ConfigError("field 'indices' is empty")
    return tuple(parse_index(name) for name in names)


def _parse_int_list(text: str, field: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"field {field!r} must be a comma-separated integer list, got {text!r}") from None
    if not values:
        raise ConfigError(f"field {field!r} is empty")
    return values


def _parse_n_values(args) -> list[int]:
    if args.n is not None and args.n_range is not None:
        raise ConfigError("give either field 'n' or 'n-range', not both")
    if args.n is not None:
        n_values = [args.n]
    elif args.n_range is not None:
        parts = args.n_range.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(f"field 'n-range' must be 'start:stop[:step]', got {args.n_range!r}")
        try:
            start, stop = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise ConfigError(f"field 'n-range' must be integers, got {args.n_range!r}") from None
        if step < 1 or stop < start:
            raise ConfigError(f"field 'n-range' must be increasing, got {args.n_range!r}")
        n_values = list(range(start, stop + 1, step))
    else:
        raise ConfigError("missing required field 'n' (or 'n-range')")
    if n_values[0] < 1:
        raise ConfigError(f"horizons must be >= 1, got {n_values[0]}")
    return n_values


def _load_config_file(args) -> dict:
    """The --config object, {} without one; any field the subcommand does
    not read is a config error."""
    path = args.config
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    fields = CONFIG_FIELDS[args.command]
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"config file field {unknown[0]!r} is not read by {args.command} "
                          f"(it reads {', '.join(fields)})")
    return data


def _resolve(args, file_config: dict, flag: str, file_key: str, default=None):
    value = getattr(args, flag, None)
    if value is not None:
        return value
    if file_key in file_config:
        return file_config[file_key]
    return default


def _resolve_int(args, file_config: dict, flag: str, file_key: str, default=None):
    """``_resolve`` for integer fields: a config-file value that is not a JSON
    integer is rejected rather than truncated."""
    value = _resolve(args, file_config, flag, file_key, default)
    if value is None or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise ConfigError(f"field {file_key!r} must be an integer, got {value!r}")


def _positive_int(text: str) -> int:
    """argparse type for --threads."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _given_seed(args, file_config: dict) -> int | None:
    seed = _resolve_int(args, file_config, "seed", "master_seed")
    if seed is not None and seed < 0:
        raise ConfigError(f"field 'master_seed' must be non-negative, got {seed}")
    return seed


def _effective_seed(args, file_config: dict) -> int:
    seed = _given_seed(args, file_config)
    return secrets.randbits(63) if seed is None else seed


def _echo_config(resolved: dict) -> None:
    print("resolved config: " + json.dumps(resolved, sort_keys=True, default=str),
          file=sys.stderr)


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    return buffer.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _table_output(args, header, rows) -> None:
    if args.format == "csv":
        _emit(_csv_text(header, rows), args.out)
    else:
        payload = {"rows": [dict(zip(header, (_fmt(c) for c in row))) for row in rows]}
        _emit(_json_text(payload), args.out)


# -- subcommand handlers -------------------------------------------------------
#
# Each handler resolves and validates its whole configuration, then returns
# the resolved config (echoed on stderr) and a function that does the work.
# Anything raised before the return is a usage error; anything raised by
# the work function is a runtime failure.

def _cmd_simulate(args):
    file_config = _load_config_file(args)
    model_text = _resolve(args, file_config, "model", "model")
    if model_text is None:
        raise ConfigError("missing required field 'model'")
    model = _parse_model(model_text)
    horizon = _resolve_int(args, file_config, "n", "horizon")
    if horizon is None:
        raise ConfigError("missing required field 'n' (horizon)")
    replicates = _resolve_int(args, file_config, "replicates", "replicates", 10_000)
    indices = _parse_indices(_resolve(args, file_config, "indices", "indices", DEFAULT_INDICES))
    seed = _effective_seed(args, file_config)

    config = SimConfig(model=model, horizon=horizon, replicates=replicates,
                       master_seed=seed, indices=indices)
    resolved = {"command": "simulate", "threads": args.threads, "format": args.format,
                **config.to_json()}

    def run() -> int:
        summary = run_experiment(config, threads=args.threads)
        if args.format == "csv":
            p = model.centroid_probability
            rows = [
                [key, config.horizon, p, config.replicates, stats.mean, stats.variance]
                for key, stats in summary.stats.items()
            ]
            _emit(_csv_text(SIMULATE_HEADER, rows), args.out)
        else:
            _emit(summary.to_json_str(), args.out)
        return EXIT_OK

    return resolved, run


def _cmd_exact(args):
    if args.index is None:
        raise ConfigError("missing required field 'index'")
    if args.p is None:
        raise ConfigError("missing required field 'p'")
    index = parse_index(args.index)
    entry = moment_catalog(index)
    if entry.mean is None or entry.variance is None:
        raise ConfigError(
            f"index {entry.key!r} has no exact catalog formulas (asymptotics only)")
    p = _parse_probability(args.p)
    n_values = _parse_n_values(args)
    resolved = {"command": "exact", "index": entry.key, "p": str(p),
                "n_values": n_values, "oracle": bool(args.oracle), "format": args.format}

    def run() -> int:
        rows = []
        rtol = 0 if isinstance(p, Fraction) else ORACLE_MATCH_RTOL  # Fraction p: exact
        for n in n_values:
            mean = entry.mean(n, p)
            variance = entry.variance(n, p)
            oracle_mean = oracle_var = None
            match = None
            if args.oracle:
                oracle_mean, oracle_var = oracle_mean_variance(index, n, p)
                match = all(abs(x - o) <= rtol * max(1, abs(o))
                            for x, o in ((mean, oracle_mean), (variance, oracle_var)))
            rows.append([entry.key, n, p, mean, variance, oracle_mean, oracle_var, match])

        _table_output(args, EXACT_HEADER, rows)
        return EXIT_OK

    return resolved, run


def _cmd_verify(args):
    file_config = _load_config_file(args)
    # No suite reads a seed: one given is echoed, and none is drawn.
    seed = _given_seed(args, file_config)
    resolved = {"command": "verify", "level": args.level, "master_seed": seed}

    def run() -> int:
        from .verify import run_level  # only this command loads the verification suites

        failures, counts = run_level(args.level)
        lines = [f"verification level={args.level}"]
        lines += [f"  {key}: {value}" for key, value in counts.items() if key != "level"]
        if failures:
            lines.append(f"FAILURES ({len(failures)}):")
            lines += [f"  {failure}" for failure in failures]
        else:
            lines.append("all suites passed")
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_VERIFY if failures else EXIT_OK

    return resolved, run


def _diag_model(args):
    if args.model is not None and args.p is not None:
        raise ConfigError("give either field 'model' or 'p', not both")
    if args.model is not None:
        return _parse_model(args.model)
    if args.p is not None:
        return UniformLeaf(float(_parse_probability(args.p)))
    raise ConfigError("missing required field 'p' (or 'model')")


def _cmd_clt(args):
    file_config = _load_config_file(args)
    if args.index is None:
        raise ConfigError("missing required field 'index'")
    index = parse_index(args.index)
    entry = moment_catalog(index)
    if entry.clt is None:
        raise ConfigError(f"index {entry.key!r} has no cataloged CLT normalizer")
    model = _diag_model(args)
    p = model.centroid_probability
    if args.n is None:
        raise ConfigError("missing required field 'n'")
    n_values = _parse_int_list(args.n, "n")
    replicates = _resolve_int(args, file_config, "replicates", "replicates", 20_000)
    if replicates < KS_MIN_SAMPLES:
        raise ConfigError(
            f"field 'replicates' must be at least {KS_MIN_SAMPLES} for a KS diagnostic, "
            f"got {replicates}")
    k = float(args.k)
    seed = _effective_seed(args, file_config)
    configs = [SimConfig(model=model, horizon=n, replicates=replicates,
                         master_seed=seed, indices=(index,))
               for n in n_values]
    if not math.isfinite(k) or min(n_values) + k <= 0:
        raise ConfigError(f"field 'k' must be finite and keep every n + k positive, got k={k}")
    resolved = {"command": "clt", "index": entry.key, "model": model.name,
                "n_values": n_values, "replicates": replicates, "clt_shift": k,
                "master_seed": seed, "threads": args.threads, "format": args.format}

    def run() -> int:
        rows = []
        for config in configs:
            n = config.horizon
            summary = run_experiment(config, args.threads)
            z = standardize(summary.atom_values[0], index, n, p, k)
            stats = atom_stats(summary.atom_counts, z)
            rows.append([entry.key, n, p, stats.mean, stats.variance,
                         ks_normal(z, summary.atom_counts), None, None, None])
        _table_output(args, DIAG_HEADER, rows)
        return EXIT_OK

    return resolved, run


def _cmd_converge(args):
    file_config = _load_config_file(args)
    if args.index is None:
        raise ConfigError("missing required field 'index'")
    index = parse_index(args.index)
    entry = moment_catalog(index)
    if entry.limit is None:
        raise ConfigError(f"index {entry.key!r} has no cataloged limit constant")
    model = _diag_model(args)
    n_grid = _parse_int_list(args.n_grid, "n-grid")
    replicates = _resolve_int(args, file_config, "replicates", "replicates", 10_000)
    if not (0 < args.eps < math.inf and 0 < args.r < math.inf):
        raise ConfigError(f"fields 'eps' and 'r' must be finite and > 0, got {args.eps}, {args.r}")
    seed = _effective_seed(args, file_config)
    for n in n_grid:
        # the probe builds these itself; building them here validates them first
        SimConfig(model=model, horizon=n, replicates=replicates, master_seed=seed,
                  indices=(index,))
    resolved = {"command": "converge", "index": entry.key, "model": model.name,
                "n_grid": n_grid, "replicates": replicates, "epsilon": args.eps,
                "r": args.r, "master_seed": seed, "threads": args.threads,
                "format": args.format}

    def run() -> int:
        probe = convergence_probe(index, model, n_grid, args.eps, args.r,
                                  replicates, seed, threads=args.threads)
        rows = [
            [row.index, row.n, row.p, row.mean, row.variance, None,
             row.exceedance, row.r_mean_error, row.limit]
            for row in probe
        ]
        _table_output(args, DIAG_HEADER, rows)
        return EXIT_OK

    return resolved, run


# -- parser --------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged,
    and its object graph is cyclic, so one built per ``main`` call would be
    left to the cyclic collector."""
    parser = argparse.ArgumentParser(
        prog="spiderlab",
        description="Random spider tree simulator, exact index analytics, and diagnostics",
    )

    def flag(*names, **kwargs) -> argparse.ArgumentParser:
        """A parent parser holding one flag, for the subcommands that read it."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    seed = flag("--seed", type=int, default=None,
                help="master seed (drawn from system entropy and echoed when omitted)")
    threads = flag("--threads", type=_positive_int, default=1,
                   help="processes for replicates, at most the CPUs this process may use")
    fmt = flag("--format", choices=("json", "csv"), default="json")
    out = flag("--out", default=None, help="output file (stdout when omitted)")
    config = flag("--config", default=None,
                  help="JSON config file, closed set of fields; flags override its values")
    index = flag("--index", default=None)
    model = flag("--model", default=None, help="uniform:<p> or preferential")
    replicates = flag("--replicates", type=int, default=None)
    sampled = [seed, threads, fmt, out, config, replicates]
    diagnostic = sampled + [index, model, flag("--p", default=None, help="uniform model probability")]

    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=sampled + [model], help="run a Monte Carlo experiment")
    sim.add_argument("--n", type=int, default=None, help="growth horizon")
    sim.add_argument("--indices", default=None, help=f"comma list (default {DEFAULT_INDICES})")

    exact = sub.add_parser("exact", parents=[fmt, out, index],
                           help="print catalog mean/variance tables")
    exact.add_argument("--n", type=int, default=None)
    exact.add_argument("--n-range", dest="n_range", default=None, help="start:stop[:step]")
    exact.add_argument("--p", default=None, help="probability; use a ratio like 2/5 for exact mode")
    exact.add_argument("--oracle", action="store_true",
                       help="also compute the summation oracle and a match column")

    verify_seed = flag("--seed", type=int, default=None,
                       help="master seed, only echoed (null when omitted: none is drawn)")
    ver = sub.add_parser("verify", parents=[verify_seed, out, config],
                         help="run the verification suites",
                         description="Run the verification suites.  No suite draws a random "
                                     "number, so the report does not depend on --seed, which "
                                     "is only echoed in the resolved config.")
    ver.add_argument("--level", choices=("quick", "full"), default="quick")

    clt = sub.add_parser("clt", parents=diagnostic,
                         help="KS-vs-normal table for standardized indices")
    clt.add_argument("--n", default=None, help="comma list of horizons")
    clt.add_argument("--k", type=float, default=0.0, help="free shift in the CLT scale")

    conv = sub.add_parser("converge", parents=diagnostic,
                          help="exceedance and r-mean error toward the cataloged limit")
    conv.add_argument("--n-grid", dest="n_grid", default="100,1000,10000")
    conv.add_argument("--eps", type=float, default=0.05)
    conv.add_argument("--r", type=float, default=2.0)

    return parser


_HANDLERS = {
    "simulate": _cmd_simulate,
    "exact": _cmd_exact,
    "verify": _cmd_verify,
    "clt": _cmd_clt,
    "converge": _cmd_converge,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        try:
            resolved, run = _HANDLERS[args.command](args)
        except ValueError as exc:
            # ConfigError, bad probabilities, unknown indices, bad SimConfig fields.
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        _echo_config(resolved)
        return run()
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
