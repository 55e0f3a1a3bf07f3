"""Outside-in span tracing of shishkinfem's layers.

`Tracer.install` replaces, on the imported modules, the functions that the
`cli`, `errorlab` and `greenfn` modules import, a few of their own public
functions, the coefficient callables of every problem spec the CLI builds
and the `scipy.sparse.linalg` calls that `linsolve` makes, with wrappers
that record spans.  Nothing under src/ is edited.  Spans live in memory
until `metrics` and `span_records` read them at the end of the run.

A span's self time is its duration minus the durations of its direct
children; the process is single-threaded, so children nest fully.  The
independent residual check of each solve runs in its own `trace.check`
span, so it is charged to no layer.
"""

import dataclasses
import time
import types
import weakref

import numpy as np

RESIDUAL_LIMIT = 1e-10

# span name -> per-layer self-time metric; the metrics are disjoint.
SELF_TIME = {
    "meshgen.build_mesh": "meshgen.build_mesh_s",
    "meshgen.classify_points": "meshgen.classify_s",
    "problem.coeff": "problem.coeff_s",
    "problem.template": "problem.template_s",
    "assembly.assemble": "assembly.assemble_s",
    "assembly.assemble_mass": "assembly.norm_mats_s",
    "assembly.assemble_stiffness": "assembly.norm_mats_s",
    "linsolve.spilu": "linsolve.factor_s",
    "linsolve.splu": "linsolve.factor_s",
    "linsolve.gmres": "linsolve.krylov_s",
    "linsolve.solve": "linsolve.other_s",
    "linsolve.solve_transpose": "linsolve.other_s",
    "greenfn.green_norm_sweep": "greenfn.self_s",
    "greenfn.green_function": "greenfn.self_s",
    "greenfn.default_probes": "greenfn.self_s",
    "greenfn.fe_l2_norm": "greenfn.norms_s",
    "greenfn.fe_energy_norm": "greenfn.norms_s",
    "errorlab.bilinear_interp": "errorlab.interp_s",
    "errorlab.error_table": "errorlab.self_s",
    "errorlab.interp_error_study": "errorlab.self_s",
    "errorlab.mms_convergence": "errorlab.self_s",
    "errorlab.solve_problem": "errorlab.self_s",
    "cli.run": "cli.output_s",
    "trace.check": "trace.check_s",
}

# module -> attributes wrapped there.  Imported names are wrapped where they
# are looked up, so each call is seen once, at the caller's boundary; the
# span is named after the module that defines the function.
WRAPPED = {
    "cli": ["transition_params", "green_norm_sweep", "default_probes",
            "error_table", "interp_error_study", "mms_convergence",
            "solve_problem", "run"],
    "errorlab": ["transition_params", "build_mesh", "classify_points",
                 "assemble", "bilinear_interp"],
    "greenfn": ["transition_params", "build_mesh", "assemble",
                "assemble_mass", "assemble_stiffness", "green_function",
                "fe_l2_norm", "fe_energy_norm"],
}


def _duration(spans, *names):
    return sum(s["end"] - s["start"] for s in spans if s["name"] in names)


def _layer_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans = []          # dicts: name, parent, start, end, attrs
        self.solves = []         # one dict per solve / solve_transpose call
        self._stack = []
        self._matrices = {}      # id(A) -> weakref, to count distinct matrices

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; returns (span, result)."""
        span = {"name": name,
                "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            return span, fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            span, out = self.call(name, fn, *args, **kwargs)
            if attrs is not None:
                span.update(attrs(args, out))
            return out
        return wrapper

    # --- installation -------------------------------------------------

    def install(self, cli):
        """Wrap the layer boundaries reachable from the cli module."""
        from shishkinfem import errorlab, greenfn, linsolve

        attrs = {
            "classify_points": lambda a, out: {"points": int(np.size(a[0]))},
            "bilinear_interp": lambda a, out: {
                "points": int(np.atleast_2d(a[1]).shape[0])},
            "assemble": lambda a, out: {"n": out[0].shape[0],
                                        "nnz": int(out[0].nnz)},
        }
        for module in (cli, errorlab, greenfn):
            for attr in WRAPPED[module.__name__.rsplit(".", 1)[-1]]:
                fn = getattr(module, attr)
                setattr(module, attr,
                        self.wrap(_layer_name(fn), fn, attrs.get(attr)))
        errorlab.solve = self._solve_wrapper("linsolve.solve", errorlab.solve,
                                             transpose=False)
        greenfn.solve_transpose = self._solve_wrapper(
            "linsolve.solve_transpose", greenfn.solve_transpose,
            transpose=True)
        for attr in ("example_5_1", "mms_problem"):
            setattr(cli, attr, self._spec_factory(getattr(cli, attr)))
        cli.layer_template = self._template_factory(cli.layer_template)

        spla = linsolve.spla
        proxy = types.SimpleNamespace(**vars(spla))
        proxy.spilu = self.wrap("linsolve.spilu", spla.spilu,
                                lambda a, out: {"nnz_A": int(a[0].nnz),
                                                "nnz_LU": int(out.nnz)})
        proxy.splu = self.wrap("linsolve.splu", spla.splu)
        proxy.gmres = self.wrap("linsolve.gmres", spla.gmres)
        linsolve.spla = proxy

    def _counted(self, name, fn):
        return self.wrap(name, fn,
                         lambda a, out: {"points": int(np.size(a[0]))})

    def _spec_factory(self, factory):
        def make(*args, **kwargs):
            _, spec = self.call(_layer_name(factory), factory, *args, **kwargs)
            return dataclasses.replace(
                spec, b1=self._counted("problem.coeff", spec.b1),
                c=self._counted("problem.coeff", spec.c),
                f=self._counted("problem.coeff", spec.f))
        return make

    def _template_factory(self, factory):
        def make(*args, **kwargs):
            _, tpl = self.call(_layer_name(factory), factory, *args, **kwargs)
            return dataclasses.replace(
                tpl, func=self._counted("problem.template", tpl.func))
        return make

    def _solve_wrapper(self, name, fn, transpose):
        def wrapper(A, b, *args, **kwargs):
            first = len(self.spans)
            span, (u, report) = self.call(name, fn, A, b, *args, **kwargs)
            inner = self.spans[first + 1:]
            _, residual = self.call("trace.check", self._residual,
                                    A, b, u, transpose)
            ref = self._matrices.get(id(A))
            new_matrix = ref is None or ref() is not A
            if new_matrix:
                self._matrices[id(A)] = weakref.ref(A)
            self.solves.append({
                "fn": name.split(".")[1], "n": int(A.shape[0]),
                "nnz": int(A.nnz), "new_matrix": new_matrix,
                "method": report.method, "iterations": int(report.iterations),
                "reported_residual": float(report.relative_residual),
                "residual": residual, "time_s": span["end"] - span["start"],
                "factor_s": _duration(inner, "linsolve.spilu", "linsolve.splu"),
                "krylov_s": _duration(inner, "linsolve.gmres"),
                "ilu_fill": [s["nnz_LU"] / s["nnz_A"] for s in inner
                             if s["name"] == "linsolve.spilu"]})
            return u, report
        return wrapper

    @staticmethod
    def _residual(A, b, u, transpose):
        """||b - A u|| / ||b|| (A^T for transpose solves), recomputed here."""
        op = A.T if transpose else A
        nb = float(np.linalg.norm(b))
        return float(np.linalg.norm(b - op @ u)) / nb if nb else 0.0

    # --- read-out -----------------------------------------------------

    def self_times(self):
        """Self time per span, in span order."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def metrics(self):
        """Per-layer metrics of everything recorded so far."""
        m = dict.fromkeys(sorted(set(SELF_TIME.values())), 0.0)
        count = {}
        points = {}
        for span, self_s in zip(self.spans, self.self_times()):
            name = span["name"]
            if name in SELF_TIME:
                m[SELF_TIME[name]] += self_s
            count[name] = count.get(name, 0) + 1
            points[name] = points.get(name, 0) + span.get("points", 0)
        assembled = [s for s in self.spans if s["name"] == "assembly.assemble"]
        ilu = [s for s in self.spans if s["name"] == "linsolve.spilu"]
        factors = count.get("linsolve.spilu", 0) + count.get("linsolve.splu", 0)
        matrices = sum(s["new_matrix"] for s in self.solves)
        m.update({
            "meshgen.classified_points": points.get("meshgen.classify_points", 0),
            "problem.coeff_calls": count.get("problem.coeff", 0),
            "problem.coeff_points": points.get("problem.coeff", 0),
            "problem.template_points": points.get("problem.template", 0),
            "assembly.calls": len(assembled),
            "assembly.unknowns": sum(s["n"] for s in assembled),
            "assembly.nnz": sum(s["nnz"] for s in assembled),
            "linsolve.solves": len(self.solves),
            "linsolve.factor_count": factors,
            "linsolve.factor_per_matrix": factors / matrices if matrices else 0.0,
            "linsolve.fill_ratio": (sum(s["nnz_LU"] for s in ilu)
                                    / sum(s["nnz_A"] for s in ilu)
                                    if ilu else 0.0),
            "linsolve.iterations": sum(s["iterations"] for s in self.solves),
            "linsolve.max_iterations": max(
                (s["iterations"] for s in self.solves), default=0),
            "linsolve.fallbacks": sum(s["method"] != "gmres+ilu"
                                      for s in self.solves),
            "linsolve.max_rel_residual": max(
                (s["residual"] for s in self.solves), default=0.0),
            "greenfn.sources": count.get("greenfn.green_function", 0),
            "errorlab.interp_points": points.get("errorlab.bilinear_interp", 0),
        })
        return m

    def failed_solves(self):
        return sum(not s["residual"] <= RESIDUAL_LIMIT for s in self.solves)

    def span_records(self):
        """Spans with times relative to the first span, for the trace file."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                for s in self.spans]
