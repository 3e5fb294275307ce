"""Layer tracing for the benchmark, installed from outside the library.

``Tracer.install()`` replaces selected public functions of the exoticcone
modules with timing wrappers: on the defining module and on every other
exoticcone module that rebound the same function object by name (the
``from .linalg import rref`` style), so internal calls are seen too.
Nothing in ``src/`` changes; ``uninstall()`` puts the originals back.

Every wrapped call is timed on a per-thread stack of frames. When it
returns, its duration is added to the parent frame's child time and its
self time (duration minus child time) to the layer's total. Calls of
``span`` layers are also stored as spans (name, start, end, parent span,
operation id, thread) and written out at the end of a run; hot layers
called hundreds of thousands of times are kept only as counters: calls and
self time per layer, plus calls, summed time and nonzero results per
(layer, parent layer). The self times under a top-level frame therefore
sum to its duration; ``residual`` records the largest miss as a check.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from fractions import Fraction

clock = time.perf_counter

# (module, attribute, layer name, how the layer is recorded):
#   "span"  every call is stored as a span;
#   "count" calls are only counted, but nested layers still see a frame;
#   "leaf"  counted without a frame: for hot functions that call no other
#           traced layer (one that did would break the self-time check).
TARGETS = (
    ("linalg", "rref", "linalg.rref", "leaf"),
    ("linalg", "det", "linalg.det", "leaf"),
    ("linalg", "mat_mul", "linalg.mat_mul", "leaf"),
    ("linalg", "nonneg_combination", "linalg.nonneg_combination", "leaf"),
    ("linalg", "sub_add", "orbits.lattice_ops", "count"),
    ("linalg", "sub_intersect", "orbits.lattice_ops", "count"),
    ("linalg", "map_image", "orbits.lattice_ops", "count"),
    ("linalg", "map_preimage", "orbits.lattice_ops", "count"),
    ("kostant", "kostant_p", "kostant.count", "leaf"),
    ("kostant", "kostant_p_exotic", "kostant.count", "leaf"),
    ("characters", "weight_mult", "characters.weight_mult", "span"),
    ("characters", "weight_mult_oracle", "characters.freudenthal", "span"),
    ("sections", "h0_mult", "sections.h0_mult", "span"),
    ("sections", "h0_mult_subsets", "sections.h0_mult_subsets", "span"),
    ("rootdata", "in_conv", "rootdata.in_conv", "span"),
    ("orbits", "orbit_of", "orbits.orbit_of", "span"),
    ("orbits", "centralizer_basis", "orbits.centralizer_basis", "span"),
    ("orbits", "jordan_type", "orbits.jordan_type", "span"),
    ("orbits", "adapted_filtration", "orbits.adapted_filtration", "span"),
    ("orbits", "verify_adapted", "orbits.verify_adapted", "span"),
    ("orbits", "solve_symplectic_form", "orbits.solve_symplectic_form",
     "span"),
    ("orbits", "perp", "orbits.perp", "count"),
    ("bipartitions", "hasse", "bipartitions.hasse", "span"),
    ("bipartitions", "closure_leq", "bipartitions.closure_leq", "leaf"),
    ("cli", "run", "cli.run", "span"),
)

# layers whose first argument is a matrix: record its largest entry
ENTRY_BITS = {"linalg.rref", "linalg.det"}
# layers whose nonzero results are counted
NONZERO = {"kostant.count"}


def entry_bits(rows) -> int:
    """Largest bit length of a numerator or denominator in a matrix."""
    best = 0
    for row in rows:
        for x in row:
            if type(x) is Fraction:
                bits = max(x.numerator.bit_length(),
                           x.denominator.bit_length())
            elif type(x) is int:
                bits = x.bit_length()
            else:
                continue
            if bits > best:
                best = bits
    return best


class _ThreadState:
    __slots__ = ("index", "stack", "spans", "layers", "edges", "max_bits",
                 "self_sum", "residual")

    def __init__(self, index):
        self.index = index
        self.stack = []      # [name, start, child time, span index, keep]
        self.spans = []      # [name, start, end, parent span, op id, thread]
        self.layers = {}     # name -> [calls, self seconds]
        self.edges = {}      # (name, parent name) -> [calls, seconds, nonzero]
        self.max_bits = 0
        self.self_sum = 0.0  # self time closed since the last top-level frame
        self.residual = 0.0  # largest |sum of self times - duration|

    def summary(self) -> dict:
        return {
            "layers": self.layers,
            "edges": {f"{name}<{parent}": value
                      for (name, parent), value in self.edges.items()},
            "max_bits": self.max_bits,
            "residual": self.residual,
        }


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._undo = []
        self.op = None  # id stamped on new spans; set by the caller

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def _open(self, name, keep):
        st = self._state()
        stack = st.stack
        start = clock()
        parent_span = stack[-1][3] if stack else None
        if keep:
            span = len(st.spans)
            st.spans.append([name, start, None, parent_span, self.op,
                             st.index])
        else:
            span = parent_span
        frame = [name, start, 0.0, span, keep]
        stack.append(frame)
        return st, frame

    def _close(self, st, frame, nonzero=False):
        end = clock()
        st.stack.pop()
        name, start, child, span, keep = frame
        if keep:
            st.spans[span][2] = end
        self._record(st, name, end - start, end - start - child, nonzero)

    @staticmethod
    def _record(st, name, duration, own, nonzero):
        layer = st.layers.get(name)
        if layer is None:
            layer = st.layers[name] = [0, 0.0]
        layer[0] += 1
        layer[1] += own
        stack = st.stack
        if stack:
            parent = stack[-1]
            parent[2] += duration
            key = (name, parent[0])
        else:
            key = (name, None)
        edge = st.edges.get(key)
        if edge is None:
            edge = st.edges[key] = [0, 0.0, 0]
        edge[0] += 1
        edge[1] += duration
        if nonzero:
            edge[2] += 1
        st.self_sum += own
        if not stack:
            st.residual = max(st.residual, abs(st.self_sum - duration))
            st.self_sum = 0.0

    def wrap(self, name, fn, how):
        tracer = self
        bits = name in ENTRY_BITS
        count_nonzero = name in NONZERO
        record = self._record

        if how == "leaf":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                st = tracer._state()
                if bits and args:
                    # recorded as its own layer so no real layer absorbs it
                    start = clock()
                    st.max_bits = max(st.max_bits, entry_bits(args[0]))
                    spent = clock() - start
                    record(st, "trace.entry_scan", spent, spent, False)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    spent = clock() - start
                    record(st, name, spent, spent, False)
                    raise
                spent = clock() - start
                record(st, name, spent, spent, count_nonzero and bool(result))
                return result
            return traced

        keep = how == "span"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st, frame = tracer._open(name, keep)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(st, frame)
                raise
            tracer._close(st, frame, count_nonzero and bool(result))
            return result

        return traced

    def operation(self, op_id):
        """Context manager for the root frame of one benchmark operation."""
        return _Operation(self, op_id)

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "exoticcone" or key.startswith("exoticcone.")]
        for mod_name, attr, name, how in TARGETS:
            home = sys.modules["exoticcone." + mod_name]
            original = getattr(home, attr)
            wrapper = self.wrap(name, original, how)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo = []

    def summary(self) -> dict:
        """Merged counters of every thread, JSON-ready."""
        return merge(st.summary() for st in self._threads)

    def spans(self) -> list:
        return [span for st in self._threads for span in st.spans]


class _Operation:
    def __init__(self, tracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        self.tracer.op = self.op_id
        self.st, self.frame = self.tracer._open("op", True)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.st, self.frame)
        self.tracer.op = None
        return False


def merge(summaries) -> dict:
    """Sum the counters of several summaries (threads or processes)."""
    layers, edges = {}, {}
    max_bits, residual = 0, 0.0
    for s in summaries:
        for name, (calls, own) in s["layers"].items():
            acc = layers.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += own
        for key, (calls, secs, nz) in s["edges"].items():
            acc = edges.setdefault(key, [0, 0.0, 0])
            acc[0] += calls
            acc[1] += secs
            acc[2] += nz
        max_bits = max(max_bits, s["max_bits"])
        residual = max(residual, s["residual"])
    return {"layers": layers, "edges": edges, "max_bits": max_bits,
            "residual": residual}


def memo_entries(kostant_module) -> int:
    """Entries left in the partition-count memos (0 if the library no
    longer keeps them where this looks)."""
    registry = getattr(kostant_module, "_registry", {})
    return sum(len(getattr(c, "memo", ())) for c in registry.values())
