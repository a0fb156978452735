"""Layer spans recorded from outside the program.

``instrument`` replaces the public functions of the spfem layers with
thin wrappers that append a span (name, start, end, parent, attributes)
to an in-memory list, and puts every original back when its block ends,
so an untraced pass runs the unmodified functions.  A function imported
by name into several modules (``from .mesh import build_structured_mesh``)
is replaced in every spfem module that binds it.

Nothing here imports spfem or numpy at module level: the benchmark times
the first ``import spfem`` as part of its set-up.
"""

import collections
import contextlib
import functools
import os
import sys
import time


class Tracer:
    """Spans of one traced region, kept in memory until written out."""

    def __init__(self):
        self.spans = []       # dicts: name, t0, t1, parent, attrs
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "t0": time.perf_counter(),
                           "t1": None, "parent": parent, "attrs": {}})
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx]["t1"] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order ({popped})")

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)


# --- per-call attributes, read from arguments and results -------------

def _eig_attrs(args, kwargs, result):
    from spfem.linsolve import DENSE_CUTOFF
    A, L = args[0], args[2] if len(args) > 2 else kwargs["L"]
    cutoff = kwargs.get("dense_cutoff", DENSE_CUTOFF)
    # mirrors the path choice at the top of lowest_eigenpairs
    dense = A.n <= cutoff or L > A.n - 2
    return {"levels": int(L), "dense": bool(dense),
            "max_resid": float(max(result.residual_norms))}


def _occupation_attrs(args, kwargs, result):
    spectral, state = result
    return {"occupied": int(state.level_count) - 1,
            "computed": int(spectral.count)}


def _scf_attrs(args, kwargs, result):
    return {"iterations": len(result.iterations)}


def _series_attrs(args, kwargs, result):
    return {"points": int(result.size)}


def _dump_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    use_gzip = args[2] if len(args) > 2 else kwargs.get("use_gzip", False)
    return {"bytes": os.path.getsize(path + ".gz" if use_gzip else path)}


# (module, attribute, span name, attributes hook)
FUNCTIONS = [
    ("spfem.mesh", "build_structured_mesh", "mesh.build", None),
    ("spfem.fem", "assemble_stiffness", "fem.stiffness", None),
    ("spfem.fem", "assemble_mass", "fem.mass", None),
    ("spfem.fem", "assemble_weighted_mass", "fem.weighted_mass", None),
    ("spfem.fem", "assemble_load", "fem.load", None),
    ("spfem.fem", "l2_norm_error", "fem.error", None),
    ("spfem.fem", "h1_semi_error", "fem.error", None),
    ("spfem.fem", "h1_error", "fem.error", None),
    ("spfem.linsolve", "lowest_eigenpairs", "linsolve.eig", _eig_attrs),
    ("spfem.linsolve", "pcg_solve", "linsolve.pcg", None),
    ("spfem.spectrum", "assemble_hamiltonian", "spectrum.hamiltonian", None),
    ("spfem.occupancy", "determine_occupation", "occupancy.determine",
     _occupation_attrs),
    ("spfem.occupancy", "solve_fermi", "occupancy.fermi", None),
    ("spfem.scf", "fixed_point_solve", "scf.solve", _scf_attrs),
    ("spfem.scf", "poisson_solve", "scf.poisson", None),
    ("spfem.oracle", "manufactured_problem", "oracle.problem", None),
    ("spfem.lab", "run_study", "lab.study", None),
    ("spfem.cli", "main", "cli.main", None),
    ("spfem.cli", "dump_potential", "cli.dump", _dump_attrs),
    ("spfem.cli", "dump_density", "cli.dump", _dump_attrs),
]

# (module, class, method, span name, attributes hook)
METHODS = [
    ("spfem.spectrum", "SpectrumSolver", "solve", "spectrum.solve", None),
    ("spfem.occupancy", "DensityField", "element_values",
     "occupancy.density", None),
    ("spfem.oracle", "SeriesDensity", "__call__", "oracle.series_eval",
     _series_attrs),
]


def _wrap(tracer, name, fn, attrs_hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if attrs_hook is not None:
            tracer.spans[idx]["attrs"] = attrs_hook(args, kwargs, result)
        return result

    return traced


def span_cost(calls=20000):
    """Seconds a wrapper adds to one call, measured on a no-op."""
    def noop():
        return None

    traced = _wrap(Tracer(), "calibrate", noop, None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def _spfem_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "spfem"
                                    or name.startswith("spfem."))]


@contextlib.contextmanager
def instrument(tracer):
    """Wrap every traced layer function for the duration of the block."""
    patched = []      # (namespace object, attribute, original)
    try:
        modules = _spfem_modules()
        for mod_name, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = _wrap(tracer, name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name, hook in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            patched.append((cls, attr, original))
            setattr(cls, attr, _wrap(tracer, name, original, hook))
        yield tracer
    finally:
        for owner, key, original in reversed(patched):
            setattr(owner, key, original)


# --- analysis ---------------------------------------------------------

def self_times(spans):
    """Per-span duration minus the time covered by its direct children
    (children of one span never overlap: the program is sequential)."""
    own = [s["t1"] - s["t0"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["t1"] - s["t0"]
    return own


def nesting_errors(spans, slack=1e-9):
    """Spans whose interval leaves their parent's, or whose self time is
    negative; both would make the self-time accounting wrong."""
    errors = []
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        if own < -slack:
            errors.append(f"span {i} {s['name']}: self time {own:.3e} < 0")
        if s["parent"] is not None:
            p = spans[s["parent"]]
            if s["t0"] < p["t0"] - slack or s["t1"] > p["t1"] + slack:
                errors.append(f"span {i} {s['name']} leaves its parent "
                              f"{s['parent']} {p['name']}")
    return errors


def outermost(spans, name):
    """Spans called ``name`` with no ancestor of the same name, so that
    nested calls (h1_error calling l2_norm_error) are counted once."""
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] != name:
            p = spans[p]["parent"]
        if p is None:
            out.append(s)
    return out


def busy(spans, name):
    return sum(s["t1"] - s["t0"] for s in outermost(spans, name))


def self_by_name(spans):
    totals = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals


def layer_metrics(pass_spans, setup_spans):
    """The per-layer metrics of one traced pass (plus the set-up spans,
    which carry the cold oracle.problem build)."""
    sp = pass_spans
    own = self_by_name(sp)

    def calls(name):
        return len(outermost(sp, name))

    def indices(name):
        return [i for i, s in enumerate(sp) if s["name"] == name]

    def parents(name):
        return [sp[i]["parent"] for i in indices(name)]

    eig = outermost(sp, "linsolve.eig")
    solves = indices("spectrum.solve")
    # a spectrum.solve without an eigensolve below it was served from
    # the solver's cache
    eig_parents = set(parents("linsolve.eig"))
    hits = sum(1 for i in solves if i not in eig_parents)
    # every spectrum.solve under one determine_occupation after the
    # first is a doubling of the level budget
    determine = indices("occupancy.determine")
    solve_parents = collections.Counter(parents("spectrum.solve"))
    doublings = sum(max(solve_parents[i] - 1, 0) for i in determine)
    occupied = sum(sp[i]["attrs"]["occupied"] for i in determine)
    computed = sum(sp[i]["attrs"]["computed"] for i in determine)
    scf = outermost(sp, "scf.solve")
    iterations = sum(s["attrs"]["iterations"] for s in scf)

    return {
        "linsolve.eig_s": busy(sp, "linsolve.eig"),
        "linsolve.eig_calls": len(eig),
        "linsolve.eig_dense_calls": sum(s["attrs"]["dense"] for s in eig),
        "linsolve.eig_levels": sum(s["attrs"]["levels"] for s in eig),
        "linsolve.eig_max_resid": max(
            (s["attrs"]["max_resid"] for s in eig), default=0.0),
        "spectrum.solve_s": busy(sp, "spectrum.solve"),
        "spectrum.solve_calls": len(solves),
        "spectrum.cache_hit_ratio": hits / len(solves) if solves else 0.0,
        "spectrum.hamiltonian_s": busy(sp, "spectrum.hamiltonian"),
        "occupancy.budget_doublings": doublings,
        "occupancy.level_yield": occupied / computed if computed else 0.0,
        "occupancy.determine_s": busy(sp, "occupancy.determine"),
        "occupancy.fermi_s": busy(sp, "occupancy.fermi"),
        "occupancy.fermi_calls": calls("occupancy.fermi"),
        "occupancy.density_s": busy(sp, "occupancy.density"),
        "occupancy.density_calls": calls("occupancy.density"),
        "fem.load_s": busy(sp, "fem.load"),
        "fem.load_calls": calls("fem.load"),
        "fem.weighted_mass_s": busy(sp, "fem.weighted_mass"),
        "fem.weighted_mass_calls": calls("fem.weighted_mass"),
        "scf.solve_s": busy(sp, "scf.solve"),
        "scf.self_s": own.get("scf.solve", 0.0),
        "scf.iter_s": busy(sp, "scf.solve") / iterations
        if iterations else 0.0,
        "scf.poisson_s": busy(sp, "scf.poisson"),
        "scf.poisson_calls": calls("scf.poisson"),
        "linsolve.pcg_s": busy(sp, "linsolve.pcg"),
        "linsolve.pcg_calls": calls("linsolve.pcg"),
        "mesh.build_s": busy(sp, "mesh.build"),
        "mesh.build_calls": calls("mesh.build"),
        "fem.stiffness_s": busy(sp, "fem.stiffness"),
        "fem.mass_s": busy(sp, "fem.mass"),
        "oracle.problem_s": busy(setup_spans, "oracle.problem"),
        "oracle.series_eval_s": busy(sp, "oracle.series_eval"),
        "oracle.series_points": sum(
            s["attrs"]["points"] for s in outermost(sp, "oracle.series_eval")),
        "fem.error_s": busy(sp, "fem.error"),
        "fem.error_calls": calls("fem.error"),
        "cli.main_s": busy(sp, "cli.main"),
        "cli.dump_s": busy(sp, "cli.dump"),
        "cli.dump_bytes": sum(s["attrs"]["bytes"]
                              for s in outermost(sp, "cli.dump")),
        "lab.study_s": busy(sp, "lab.study"),
        "lab.self_s": own.get("lab.study", 0.0),
    }
