"""Per-layer tracing for the benchmark, installed from outside the package.

`install` replaces the public callables of each icsheaf module with
wrappers that record a span (id, name, start, end, parent id, job id) and
exact counts.  Every binding of a wrapped callable in any icsheaf module is
replaced, so a function imported by name (`from .deligne import build_ic`
in `cli`) is traced at every call site.  Spans stay in memory until
`write_spans`; self times are derived as a span's duration minus the time
covered by its child spans.

`fields` is not wrapped: its operations run hundreds of thousands of times
per job, and a wrapper there would mostly measure itself.
"""

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, layer): a class attribute is given as "Class.method".
TARGETS = [
    ("icsheaf.cli", "load_space", "cli.load_space"),
    ("icsheaf.simplicial", "SimplicialComplex.__init__", "simplicial.complex_build"),
    ("icsheaf.simplicial", "all_chains", "simplicial.all_chains"),
    ("icsheaf.stratify", "validate_stratification", "stratify.validate"),
    ("icsheaf.stratify", "compute_open_filtration", "stratify.filtration"),
    ("icsheaf.stratify", "naive_filtration", "stratify.filtration"),
    ("icsheaf.stratify", "verify_filtration_identities", "stratify.filtration"),
    ("icsheaf.sheaves", "SheafComplex.stalk_cohomology", "sheaves.stalk_cohomology"),
    ("icsheaf.sections", "pushforward_open", "sections.pushforward"),
    ("icsheaf.sections", "truncate_le", "sections.truncate"),
    ("icsheaf.sections", "cohomology_sheaf", "sections.cohomology_sheaf"),
    ("icsheaf.sections", "is_clc", "sections.is_clc"),
    ("icsheaf.sections", "cell_costalk", "sections.costalk"),
    ("icsheaf.sections", "hypercohomology", "sections.hyperco"),
    ("icsheaf.reduction", "SparseComplex.reduce", None),
    ("icsheaf.reduction", "SparseComplex.minimize_dims", "reduction.minimize"),
    ("icsheaf.matrices", "rref", "matrices.rref"),
    ("icsheaf.deligne", "build_ic", "deligne.build_ic"),
    ("icsheaf.deligne", "_verify_bundle", "deligne.verify"),
    ("icsheaf.deligne", "clc_coarsen", "deligne.coarsen"),
    ("icsheaf.deligne", "compare_stratifications", "deligne.compare"),
    ("icsheaf.axioms", "check_ax1", "axioms.check_ax1"),
    ("icsheaf.axioms", "check_ax2", "axioms.check_ax2"),
    ("icsheaf.axioms", "check_classic_ax2", "axioms.check_classic_ax2"),
    ("icsheaf.reports", "write_report", "reports.write"),
    ("icsheaf.demos", "refine_stratification", "demos.refine"),
]

# Layers whose time is reported as total (span duration) rather than self time.
TOTAL_TIME = {"deligne.build_ic", "deligne.compare"}

LAYER_TIMES = [
    "sections.costalk", "reduction.minimize", "simplicial.all_chains",
    "matrices.rref", "sections.truncate", "sheaves.stalk_cohomology",
    "sections.cohomology_sheaf", "sections.pushforward", "reduction.cleanup",
    "deligne.build_ic", "deligne.verify", "sections.is_clc", "deligne.coarsen",
    "deligne.compare", "axioms.check_ax1", "axioms.check_ax2",
    "axioms.check_classic_ax2", "simplicial.complex_build", "stratify.validate",
    "stratify.filtration", "cli.load_space", "reports.write", "demos.refine",
    "sections.hyperco",
]
LAYER_CALLS = ["sections.costalk", "matrices.rref", "sheaves.stalk_cohomology",
               "deligne.build_ic"]
LAYER_COUNTS = [
    ("reduction.minimize_gens_in", "count"), ("simplicial.chains", "count"),
    ("matrices.rref_cells", "count"), ("reduction.cleanup_gens_in", "count"),
    ("reduction.cleanup_gens_out", "count"), ("reduction.eliminations", "count"),
    ("reports.bytes", "B"),
]

# Layers a command must reach; every command also loads, validates and reports.
_BUILD = {"deligne.build_ic", "sections.pushforward", "reduction.cleanup",
          "sections.truncate", "matrices.rref", "sheaves.stalk_cohomology",
          "simplicial.all_chains", "stratify.filtration"}
_COSTALKS = {"sections.costalk", "reduction.minimize"}
REACHES = {
    "validate": set(),
    "filtration": {"stratify.filtration"},
    "build": _BUILD,
    "stalks": _BUILD,
    "hyperco": _BUILD | {"sections.hyperco", "reduction.minimize"},
    "coarsen": _BUILD | {"deligne.coarsen", "sections.cohomology_sheaf"},
    "costalks": _BUILD | _COSTALKS,
    "check-ax1": _BUILD | _COSTALKS | {"axioms.check_ax1"},
    "check-ax2": _BUILD | _COSTALKS | {"axioms.check_ax2"},
    "check-classic-ax2": _BUILD | _COSTALKS | {"axioms.check_classic_ax2"},
    "compare": _BUILD | _COSTALKS | {"deligne.compare", "demos.refine",
                                     "sections.hyperco"},
}
# A canonical (not --naive) build verifies its tower.
_VERIFY = {"deligne.verify", "sections.is_clc", "sections.cohomology_sheaf"}
_EVERY_JOB = {"cli.load_space", "simplicial.complex_build", "stratify.validate",
              "reports.write"}


def required_layers(argvs):
    """Layers the given CLI argument lists must reach between them."""
    need = set(_EVERY_JOB)
    for argv in argvs:
        need |= REACHES[argv[0]]
        if "deligne.build_ic" in REACHES[argv[0]] and "--naive" not in argv:
            need |= _VERIFY
    return need


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, job id)
        self.stack = []          # open frames: [id, name, start, child time]
        self.next_id = 0
        self.job = None
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.max_cols = 0
        self.up_set_misses_before = None

    def open(self, name):
        frame = [self.next_id, name, perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame):
        end = perf_counter()
        self.stack.pop()
        sid, name, start, child = frame
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, name, start, end,
                           parent[0] if parent is not None else -1, self.job))
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        self.calls[name] += 1

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)
        return traced

    def seconds(self, name):
        return (self.total_s if name in TOTAL_TIME else self.self_s)[name]

    def metrics(self, walls, ref_walls):
        """{name: (value, unit)}.

        walls and ref_walls hold the untraced and the traced round's wall
        time, as measured and at the reference speed.
        """
        m = {}
        for name in LAYER_TIMES:
            m[name + "_s"] = (self.seconds(name), "s")
        for name in LAYER_CALLS:
            m[name + "_calls"] = (self.calls[name], "count")
        for name, unit in LAYER_COUNTS:
            m[name] = (self.counts[name], unit)
        gens_in = self.counts["reduction.cleanup_gens_in"]
        m["reduction.cleanup_keep_ratio"] = (
            self.counts["reduction.cleanup_gens_out"] / gens_in if gens_in else 0.0, "1")
        m["matrices.rref_max_cols"] = (self.max_cols, "count")
        info = _up_set().cache_info()
        m["simplicial.up_set_misses"] = (info.misses - self.up_set_misses_before, "count")
        m["simplicial.up_set_cache_size"] = (info.currsize, "count")
        m["trace.untraced_wall_s"] = (walls[0], "s")
        m["trace.wall_s"] = (walls[1], "s")
        m["trace.overhead_s"] = (walls[1] - walls[0], "s")
        m["trace.ref_overhead_s"] = (ref_walls[1] - ref_walls[0], "s")
        m["trace.spans"] = (len(self.spans), "count")
        return m


def _up_set():
    """The lru_cache of SimplicialComplex.up_set; its statistics are the counts."""
    return sys.modules["icsheaf.simplicial"].SimplicialComplex.up_set


def _wrapper(tracer, attr, layer, orig):
    """The traced replacement for one callable, with its layer's counters."""
    counts = tracer.counts
    if attr == "SparseComplex.reduce":
        # Same-support reduction is the pushforward's cleanup; the free
        # reduction runs only inside minimize_dims and is timed there.
        def reduce(self, same_support=False):
            n0 = len(self.degree)
            if same_support:
                frame = tracer.open("reduction.cleanup")
                try:
                    orig(self, same_support)
                finally:
                    tracer.close(frame)
            else:
                orig(self, same_support)
            n1 = len(self.degree)
            counts["reduction.eliminations"] += (n0 - n1) // 2
            if same_support:
                counts["reduction.cleanup_gens_in"] += n0
                counts["reduction.cleanup_gens_out"] += n1
        return reduce
    traced = tracer.wrap(layer, orig)
    if attr == "SparseComplex.minimize_dims":
        def minimize_dims(self):
            counts["reduction.minimize_gens_in"] += len(self.degree)
            return traced(self)
        return minimize_dims
    if attr == "rref":
        def rref(F, A):
            cols = len(A[0]) if A else 0
            counts["matrices.rref_cells"] += len(A) * cols
            tracer.max_cols = max(tracer.max_cols, cols)
            return traced(F, A)
        return rref
    if attr == "all_chains":
        def all_chains(K, members):
            out = traced(K, members)
            counts["simplicial.chains"] += len(out)
            return out
        return all_chains
    if attr == "write_report":
        def write_report(path, manifest, payload):
            out = traced(path, manifest, payload)
            counts["reports.bytes"] += out.stat().st_size
            return out
        return write_report
    return traced


def install(tracer):
    """Wrap every target at every binding in the loaded icsheaf modules."""
    tracer.up_set_misses_before = _up_set().cache_info().misses
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "icsheaf" or name.startswith("icsheaf.")]
    for modname, attr, layer in TARGETS:
        home = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, functools.wraps(orig)(
                _wrapper(tracer, attr, layer, orig)))
            continue
        orig = getattr(home, attr)
        new = functools.wraps(orig)(_wrapper(tracer, attr, layer, orig))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)


def write_spans(tracer, path):
    """One span per line: id, name, start, end, parent id, job id."""
    with open(path, "w") as fh:
        for sid, name, start, end, parent, job in tracer.spans:
            fh.write("%d,%s,%.9f,%.9f,%d,%s\n" % (sid, name, start, end, parent, job))
