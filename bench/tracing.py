"""Span tracing of the program's public functions, installed from outside.

`Tracer.install()` replaces each traced function at every place the
program binds it: the defining module, every `from .x import f` copy in
the other cycloperiods modules (found by identity, so `embed` in
`periods`, `pel`, `suite` and `cli` and the `periods` helpers imported
by `pel` are all covered), class attributes including aliases such as
`TowerElem.__rmul__ = __mul__`, the registered check functions in
`suite.CHECKS`, and `cli`'s `json.dumps`.  The program's files are not
touched.

A span is (name id, parent span, start ns, end ns, outermost flag),
kept in one flat integer array in memory and written out at the end.
"outermost" is 0 for a call made while the same function is already
on the stack (the recursion of `ball_det`, say), so inclusive times and
call counts never count a call twice.

Round 0 (with set-up) also feeds hooks: operand samples for the kernel
replay, mul operands that are rational, and the coefficient heights of
results.  Hooks read only public API: `TowerElem.to_json`,
`is_rational`.
"""

import functools
import inspect
import json
import random
import statistics
import sys
import time
from array import array
from fractions import Fraction

FIELDS = 5
SAMPLE_SIZE = 256


def _bits(n):
    return abs(int(n)).bit_length()


def tower_height(x):
    """Largest numerator or denominator bit length among the 8 coordinates."""
    obj = x.to_json()
    return max(max(_bits(n), _bits(d)) for n, d in obj["c"] + obj["a"])


class _JsonProxy:
    """Stands in for the `json` module inside `cli`, tracing `dumps` only."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self, seed):
        self.names = []
        self._ids = {}
        self.spans = array("q")
        self.stack = [-1]
        self.active = []            # per name id: calls currently on the stack
        self.phases = []            # (label, first span index)
        self.hooks_on = False
        self.rng = random.Random(f"cycloperiods-bench-trace/{seed}")
        self.samples = {}           # kind -> reservoir of replayable calls
        self.seen = {}
        self.stats = {"mul_rational": 0, "max_height_bits": 0,
                      "snf_max_entry_bits": 0}
        self.originals = {}         # traced name -> original callable
        self._declined = None

    # -- names and phases ------------------------------------------------------

    def nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self._ids[name]

    def phase(self, label, hooks):
        """Start a new phase; spans from here on belong to it."""
        self.phases.append((label, len(self.spans) // FIELDS))
        self.hooks_on = hooks

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name, fn, hook=None, binary=False):
        """A traced stand-in for fn.  binary: a dunder that may decline."""
        nid = self.nid(name)
        self.originals.setdefault(name, fn)
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter_ns
        declined = self._declined
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans) // FIELDS
            outer = 0 if active[nid] else 1
            spans.extend((nid, stack[-1], 0, 0, outer))
            stack.append(idx)
            active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[nid] -= 1
                stack.pop()
                base = idx * FIELDS
                spans[base + 2] = t0
                spans[base + 3] = t1
            if binary and result is NotImplemented:
                # Python retries with the reflected method; not a tower op
                spans[idx * FIELDS] = declined
            elif hook is not None and tracer.hooks_on:
                hook(args, kwargs, result)
            return result

        return traced

    def span(self, name):
        """Context manager recording a span from the benchmark's own code."""
        return _Span(self, self.nid(name))

    # -- hooks (round 0 only) --------------------------------------------------

    def offer(self, kind, item):
        n = self.seen[kind] = self.seen.get(kind, 0) + 1
        res = self.samples.setdefault(kind, [])
        if len(res) < SAMPLE_SIZE:
            res.append(item)
        else:
            j = self.rng.randrange(n)
            if j < SAMPLE_SIZE:
                res[j] = item

    def _height(self, result):
        h = tower_height(result)
        if h > self.stats["max_height_bits"]:
            self.stats["max_height_bits"] = h

    def _mul_hook(self, args, kwargs, result):
        a, b = args
        if (isinstance(b, (int, Fraction)) or b.is_rational()
                or a.is_rational()):
            self.stats["mul_rational"] += 1
        self.offer("mul", (a, b))
        self._height(result)

    def _add_hook(self, args, kwargs, result):
        self.offer("add", args)
        self._height(result)

    def _sub_hook(self, args, kwargs, result):
        self._height(result)

    def _inverse_hook(self, args, kwargs, result):
        self.offer("inverse", args)

    def _embed_hook(self, args, kwargs, result):
        self.offer("embed", (args, kwargs))

    def _snf_hook(self, args, kwargs, result):
        bits = max((_bits(x) for M in result for row in M for x in row), default=0)
        if bits > self.stats["snf_max_entry_bits"]:
            self.stats["snf_max_entry_bits"] = bits

    # -- installation ----------------------------------------------------------

    def install(self):
        from cycloperiods import (balls, cli, covers, exactfield, intlat, pel,
                                  periods, report, stcurve, suite)

        self._declined = self.nid("exactfield.declined")
        mods = [m for n, m in sys.modules.items()
                if n == "cycloperiods" or n.startswith("cycloperiods.")]

        def rebind(orig, new):
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, new)

        def public_functions(mod, layer, skip=()):
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in skip):
                    hook = self._snf_hook if fn is intlat.smith_normal_form else None
                    if fn is exactfield.embed:
                        hook = self._embed_hook
                    rebind(fn, self.wrap(f"{layer}.{attr}", fn, hook))

        def methods(cls, layer, table):
            # table: attribute -> (traced name, hook, binary); aliases share
            # one function object, so each attribute is wrapped by name
            for attr, (label, hook, binary) in table.items():
                fn = vars(cls)[attr]
                setattr(cls, attr, self.wrap(f"{layer}.{label}", fn, hook, binary))

        T = exactfield.TowerElem
        methods(T, "exactfield", {
            "__mul__": ("mul", self._mul_hook, True),
            "__rmul__": ("mul", self._mul_hook, True),
            "__add__": ("add", self._add_hook, True),
            "__radd__": ("add", self._add_hook, True),
            "__sub__": ("sub", self._sub_hook, True),
            "__rsub__": ("sub", self._sub_hook, True),
            "__neg__": ("neg", None, False),
            "__truediv__": ("truediv", None, True),
            "__rtruediv__": ("truediv", None, True),
            "__pow__": ("pow", None, True),
            "inverse": ("inverse", self._inverse_hook, False),
            "conjugate": ("conjugate", None, False),
            "to_json": ("to_json", None, False),
        })
        # staticmethod objects in the class dict: wrap the function inside
        T.from_json = staticmethod(self.wrap("exactfield.from_json",
                                             vars(T)["from_json"].__func__))
        public_functions(exactfield, "exactfield")

        B = balls.ComplexBall
        methods(B, "balls", {
            "__mul__": ("mul", None, True),
            "__add__": ("add", None, True),
            "__sub__": ("sub", None, True),
            "scale": ("scale", None, False),
            "decimal": ("decimal", None, False),
        })
        public_functions(balls, "balls", skip=("sqrt_upper", "sqrt_lower"))

        public_functions(intlat, "intlat")

        C = covers.CyclicCover
        methods(C, "covers", {m: (m, None, False) for m in
                              ("table", "genus", "eigenspace_dims", "h1_ranks")})
        public_functions(covers, "covers")

        P = periods.PeriodMatrix
        methods(P, "periods", {m: (m, None, False) for m in
                               ("evaluate", "subs", "eval_ball", "to_json")})
        public_functions(periods, "periods")
        public_functions(pel, "pel")
        public_functions(stcurve, "stcurve")

        suite.CHECKS[:] = [(cid, tag, self.wrap(f"suite.check.{cid}", fn))
                           for cid, tag, fn in suite.CHECKS]
        suite.SuiteContext._get = self.wrap("suite.pipeline", suite.SuiteContext._get)
        rebind(suite.run_all, self.wrap("suite.run_all", suite.run_all))

        R = report.Report
        methods(R, "cli", {"dumps": ("render", None, False),
                           "render": ("render", None, False)})
        rebind(cli.parse_tower, self.wrap("cli.parse_tower", cli.parse_tower))
        cli.json = _JsonProxy(self.wrap("cli.render", json.dumps))

    # -- aggregation -----------------------------------------------------------

    def aggregate(self, lo, hi):
        """Per-name [outer calls, outer inclusive ns, exclusive ns] over spans lo..hi-1."""
        spans = self.spans
        child = {}
        for i in range(lo, hi):
            b = i * FIELDS
            p = spans[b + 1]
            if p >= lo:
                child[p] = child.get(p, 0) + spans[b + 3] - spans[b + 2]
        out = {}
        for i in range(lo, hi):
            b = i * FIELDS
            nid, outer = spans[b], spans[b + 4]
            dur = spans[b + 3] - spans[b + 2]
            row = out.setdefault(self.names[nid], [0, 0, 0])
            if outer:
                row[0] += 1
                row[1] += dur
            row[2] += dur - child.get(i, 0)
        return out

    def phase_tables(self):
        """[(label, aggregate)] for each phase."""
        bounds = [start for _, start in self.phases] + [len(self.spans) // FIELDS]
        return [(label, self.aggregate(bounds[k], bounds[k + 1]))
                for k, (label, _) in enumerate(self.phases)]

    # -- kernel replay ---------------------------------------------------------

    def replay_us(self, kind, repeats=5):
        """Median over passes of the mean time (us) of one sampled call, untraced."""
        sample = self.samples.get(kind)
        if not sample:
            return 0.0
        if kind == "mul":
            f = self.originals["exactfield.mul"]
            call = lambda item: f(*item)
        elif kind == "add":
            f = self.originals["exactfield.add"]
            call = lambda item: f(*item)
        elif kind == "inverse":
            f = self.originals["exactfield.inverse"]
            call = lambda item: f(*item)
        else:
            f = self.originals["exactfield.embed"]
            call = lambda item: f(*item[0], **item[1])
        for item in sample:          # warm caches (embed's basis balls)
            call(item)
        per_pass = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for item in sample:
                call(item)
            per_pass.append((time.perf_counter_ns() - t0) / len(sample) / 1000)
        return statistics.median(per_pass)

    def write(self, path_prefix, extra):
        """Spans as raw int64 (FIELDS per span) plus a JSON description."""
        with open(path_prefix + ".spans", "wb") as fh:
            self.spans.tofile(fh)
        meta = {"fields": ["name", "parent", "start_ns", "end_ns", "outermost"],
                "names": self.names,
                "phases": [[label, start] for label, start in self.phases],
                "count": len(self.spans) // FIELDS}
        meta.update(extra)
        with open(path_prefix + ".json", "w") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)


class _Span:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans) // FIELDS
        t.spans.extend((self.nid, t.stack[-1], 0, 0, 1))
        t.stack.append(self.idx)
        t.spans[self.idx * FIELDS + 2] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx * FIELDS + 3] = time.perf_counter_ns()
        t.stack.pop()
        return False
