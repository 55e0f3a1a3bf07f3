"""Experiment orchestration and file emission.

Runs are configured by command-line flags or a key=value config file
and emit CSV (or a plain-text grid for field dumps) with a commented
metadata header, so every output is rerunnable from its header alone.

Exit codes: 0 success, 1 configuration error, 2 run/solver/output
failure or out of memory.
"""

import contextlib
import math
import os
import sys
from dataclasses import dataclass, field, replace

from . import __version__
# perfbench/tracer.py wraps transition_params and default_probes here.
from .meshgen import Region, transition_params  # noqa: F401
from .problem import (example_5_1, mms_problem, layer_template, TemplateKind,
                      DEFAULT_ALPHA, DEFAULT_BETA)
from .linsolve import SolveError
from .greenfn import green_norm_sweep, default_probes  # noqa: F401
from .errorlab import (error_table, interp_error_study, mms_convergence,
                       solve_problem)

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]

MODES = ("errors", "rates", "green", "field", "interp", "mms")
PROBLEMS = ("example51", "mms")

DEFAULT_EPS = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9)
DEFAULT_N = (16, 32, 64, 128, 256)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    mode: str = "errors"
    problem: str = "example51"
    eps_list: tuple = DEFAULT_EPS
    N_list: tuple = DEFAULT_N
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    quad_order: int = 3
    template: str = "interior_x"
    probes: dict = field(default_factory=dict)
    output_dir: str = "."

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode: unknown mode {self.mode!r}")
        if self.problem not in PROBLEMS:
            raise ConfigError(f"problem: unknown problem {self.problem!r}")
        if self.mode == "field" and max(len(self.eps_list),
                                        len(self.N_list)) > 1:
            raise ConfigError("eps/N: field mode takes one eps and one N")
        if self.mode == "mms" and self.problem != "mms":
            raise ConfigError("problem: mms mode takes problem mms")
        if self.mode == "mms" and len(self.eps_list) > 1:
            raise ConfigError("eps: mms mode takes one eps")
        for n in self.N_list:
            if n % 4 != 0 or n < 4:
                raise ConfigError(f"N: {n} is not a multiple of 4 (>= 4)")
        for e in self.eps_list:
            if not 0.0 < e <= 1.0:
                raise ConfigError(f"eps: {e} outside (0, 1]")
        if self.quad_order not in (1, 2, 3, 4):
            raise ConfigError(f"quad_order: must be 1..4, got {self.quad_order}")
        if not all(0.0 < v < math.inf for v in (self.alpha, self.beta)):
            raise ConfigError("alpha/beta: must be finite and positive")
        for region, point in self.probes.items():
            if not all(-1.0 <= v <= 1.0 for v in point):
                raise ConfigError(f"probe_{region.value}: {point} outside "
                                  "[-1,1]^2")
        if self.template not in {kind.value for kind in TemplateKind}:
            raise ConfigError(f"template: unknown template {self.template!r}")
        if not self.output_dir:
            raise ConfigError("output: empty directory name")
        return self


_KEYS = {
    "mode": str,
    "problem": str,
    "eps": "floats",
    "N": "ints",
    "alpha": float,
    "beta": float,
    "quad_order": int,
    "template": str,
    "output": str,
}

# RunConfig fields whose key differs from the field name
_FIELDS = {"eps": "eps_list", "N": "N_list", "output": "output_dir"}

_PROBE_REGION = {f"probe_{region.value}": region for region in Region}
_KEYS.update(dict.fromkeys(_PROBE_REGION, "point"))


def _parse_value(key, kind, raw):
    try:
        if kind == "floats":
            return tuple(float(v) for v in raw.split(","))
        if kind == "ints":
            return tuple(int(v) for v in raw.split(","))
        if kind == "point":
            x, y = raw.split(",")
            return (float(x), float(y))
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: malformed value {raw!r}") from exc


def parse_config(text):
    """Parse key=value lines (blank lines and # comments ignored)."""
    cfg, given = RunConfig(), set()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{key}: unknown key")
        value = _parse_value(key, _KEYS[key], raw)
        given.add(key)
        if key in _PROBE_REGION:
            cfg.probes[_PROBE_REGION[key]] = value
        else:
            setattr(cfg, _FIELDS.get(key, key), value)
    if cfg.mode == "mms" and "problem" not in given:   # the one it takes
        cfg.problem = "mms"
    return cfg.validate()


def _spec(cfg, eps):
    make = mms_problem if cfg.problem == "mms" else example_5_1
    return replace(make(eps, cfg.alpha, cfg.beta), quad_order=cfg.quad_order)


def _metadata_lines(cfg):
    lines = [
        f"# version = {__version__}",
        f"# mode = {cfg.mode}",
        f"# problem = {cfg.problem}",
        f"# eps = {','.join(repr(e) for e in cfg.eps_list)}",
        f"# N = {','.join(str(n) for n in cfg.N_list)}",
        f"# alpha = {cfg.alpha!r}",
        f"# beta = {cfg.beta!r}",
        f"# quad_order = {cfg.quad_order}",
    ]
    if cfg.mode == "interp":
        lines.append(f"# template = {cfg.template}")
    for key, region in _PROBE_REGION.items():
        if cfg.mode == "green" and region in cfg.probes:
            lines.append("# {} = {!r},{!r}".format(key, *cfg.probes[region]))
    lines.append("# x_intervals = 2N (mirrored half-axis refinement)")
    return lines


def _write(path, cfg, lines):
    """Write the file whole or not at all.

    The target directory is made if missing, only now that there is
    something to write.  The lines go to a temporary file in it, which
    then replaces path.  On any error the temporary file and the
    directories made here are removed; an existing file at path is left
    as it was.
    """
    made = []       # the missing directories of path, deepest first
    parent = os.path.dirname(path)
    while parent and not os.path.lexists(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w") as fh:
            for line in _metadata_lines(cfg):
                fh.write(line + "\n")
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        for directory in made:
            with contextlib.suppress(OSError):  # not made, or not empty
                os.rmdir(directory)
        raise


def _table(cfg, header, study):
    """CSV rows of the tables study(eps), {(eps, N, Region): value or
    tuple of values}, over the distinct eps of cfg.eps_list in order."""
    rows = [header]
    for eps in dict.fromkeys(cfg.eps_list):
        for (e, N, region), values in study(eps).items():
            values = values if isinstance(values, tuple) else (values,)
            rows.append(",".join([repr(e), str(N), region.value,
                                  *map(repr, values)]))
    return rows


def _run_errors(cfg):
    rates = cfg.mode == "rates"     # error_table returns (errors, rates)
    return f"{cfg.mode}.csv", _table(
        cfg, f"eps,N,region,{'rate' if rates else 'error'}",
        lambda eps: error_table(_spec(cfg, eps), cfg.N_list)[rates])


def _run_green(cfg):
    return "green.csv", _table(
        cfg, "eps,N,region,source_x,source_y,l2_norm,energy_norm",
        lambda eps: green_norm_sweep(_spec(cfg, eps), cfg.N_list,
                                     probes=cfg.probes))


def _run_field(cfg):
    spec = _spec(cfg, cfg.eps_list[0])
    uh = solve_problem(spec, cfg.N_list[0])
    mesh = uh.mesh
    lines = [f"{mesh.nx} {mesh.ny}"]
    xs = [repr(x) + " " for x in mesh.x.tolist()]
    for y, row in zip(mesh.y.tolist(), uh.values.tolist()):
        y = repr(y) + " "
        lines += [x + y + repr(u) for x, u in zip(xs, row)]
    return "field.txt", lines


def _run_interp(cfg):
    def study(eps):
        template = layer_template(cfg.template, eps, cfg.alpha, cfg.beta)
        return interp_error_study(template, eps, cfg.alpha, cfg.beta,
                                  cfg.N_list)
    return "interp.csv", _table(cfg, "eps,N,region,error", study)


def _run_mms(cfg):
    spec = _spec(cfg, cfg.eps_list[0])
    errors, rates = mms_convergence(spec, cfg.N_list)
    rows = ["N,error,rate"]
    for n, e in errors.items():
        rows.append(f"{n},{e!r},{repr(rates[n]) if n in rates else ''}")
    return "mms.csv", rows


def run(cfg):
    """Execute a validated RunConfig; returns the process exit code."""
    # built per call, so that patches of the module's names take effect
    runners = {"errors": _run_errors, "rates": _run_errors,
               "green": _run_green, "field": _run_field,
               "interp": _run_interp, "mms": _run_mms}
    try:
        name, lines = runners[cfg.mode](cfg)
        path = os.path.join(cfg.output_dir, name)
        _write(path, cfg, lines)
    except (SolveError, ValueError, ArithmeticError, OSError,
            MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    print(path)
    return 0


# Each flag takes one value, --key VALUE or --key=VALUE; the token after
# a flag is its value even when it starts with "-" (--probe-coarse -0.5,0).
_FLAGS = {"--" + key.replace("_", "-"): key for key in ("config", *_KEYS)}
_FLAGS["-o"] = "output"


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv)
    if args in (["-h"], ["--help"]):
        print("usage: shishkinfem", *(f"[{flag} VALUE]" for flag in _FLAGS))
        return 0
    flags, lines = {}, []
    try:
        while args:
            flag, eq, value = args.pop(0).partition("=")
            if flag not in _FLAGS:
                raise ConfigError(f"{flag}: unknown flag")
            if not (eq or args):
                raise ConfigError(f"{flag}: expected a value")
            flags[_FLAGS[flag]] = value if eq else args.pop(0)
        if "config" in flags:
            with open(flags.pop("config")) as fh:
                lines.append(fh.read())
        lines += [f"{key}={value}" for key, value in flags.items()]
        cfg = parse_config("\n".join(lines))
    except (ConfigError, OSError) as exc:   # OSError: the config file
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
