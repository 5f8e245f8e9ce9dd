"""Span recorder that wraps the library's entry points at run time.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces
selected functions and methods of the ``modclass`` modules with wrappers
that open a span around each call, and ``Tracer.uninstall`` puts the
originals back, so the untraced phase runs the unmodified library.

A span's self time is its duration minus the time covered by its child
spans.  Each per-layer time metric is the summed self time of one group of
spans, so the groups plus the root's self time add up to the traced pass.
Spans are kept in memory and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from time import perf_counter

# (module, attribute, group).  An attribute of the form "Class.method"
# patches the class; a plain name is replaced in every modclass module that
# bound the same function object, so calls made across modules are caught.
# A name missing from the library is skipped and its metrics read 0.
ENTRY_POINTS = (
    ("catalog", "gl", "catalog.build"),
    ("catalog", "sl", "catalog.build"),
    ("catalog", "affine_algebra", "catalog.build"),
    ("catalog", "get_entry", "catalog.entry"),
    ("linalg", "rref", "linalg.elim"),
    ("linalg", "kernel_basis", "linalg.elim"),
    ("linalg", "solve", "linalg.elim"),
    ("linalg", "invert", "linalg.elim"),
    ("linalg", "LinearSolver.__init__", "linalg.elim"),
    ("linalg", "LinearSolver.solve", "linalg.factor_solve"),
    ("linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("liealg", "LieAlgebra.check_jacobi", "liealg.jacobi"),
    ("liealg", "ce_differential", "liealg.ce_differential"),
    ("liealg", "span_subalgebra", "liealg.subalgebra"),
    ("liealg", "coadjoint_subrep", "liealg.rep"),
    ("liealg", "quotient_rep", "liealg.rep"),
    ("liealg", "infinitesimal_character", "liealg.rep"),
    ("twisted", "verify_twisted_cybe", "twisted.cybe"),
    ("twisted", "carrier_and_kernel", "twisted.carrier_kernel"),
    ("twisted", "dual_bracket", "twisted.dual_bracket"),
    ("twisted", "_dual_table", "twisted.dual_table"),
    ("twisted", "dual_lie_algebra", "twisted.dual_table"),
    ("twisted", "sharp_homomorphism_residuals", "twisted.sharp_hom"),
    ("twisted", "modular_class", "twisted.modular"),
    ("twisted", "relation_check", "twisted.relations"),
    ("frobenius", "linearize", "frobenius.linearize"),
    ("frobenius", "frobenius_modular", "frobenius.frobenius_modular"),
    ("structfile", "parse", "structfile.parse"),
    ("structfile", "serialize", "structfile.serialize"),
    ("cli", "main", "cli"),
)

MODULES = ("linalg", "liealg", "twisted", "frobenius", "catalog", "structfile", "cli")

# Per-layer metric name -> (group, what).  "s" is summed self time, "calls"
# the number of calls; eliminations count only the outermost call, because
# kernel_basis, solve and invert run rref inside themselves.
GROUP_METRICS = {
    "catalog.build_s": ("catalog.build", "s"),
    "catalog.build_calls": ("catalog.build", "calls"),
    "catalog.entry_s": ("catalog.entry", "s"),
    "linalg.elim_calls": ("linalg.elim", "calls"),
    "linalg.elim_s": ("linalg.elim", "s"),
    "linalg.factor_solve_calls": ("linalg.factor_solve", "calls"),
    "linalg.factor_solve_s": ("linalg.factor_solve", "s"),
    "linalg.matmul_calls": ("linalg.matmul", "calls"),
    "linalg.matmul_s": ("linalg.matmul", "s"),
    "liealg.jacobi_s": ("liealg.jacobi", "s"),
    "liealg.ce_differential_s": ("liealg.ce_differential", "s"),
    "liealg.subalgebra_s": ("liealg.subalgebra", "s"),
    "liealg.rep_calls": ("liealg.rep", "calls"),
    "liealg.rep_s": ("liealg.rep", "s"),
    "twisted.cybe_s": ("twisted.cybe", "s"),
    "twisted.carrier_kernel_s": ("twisted.carrier_kernel", "s"),
    "twisted.dual_bracket_calls": ("twisted.dual_bracket", "calls"),
    "twisted.dual_bracket_s": ("twisted.dual_bracket", "s"),
    "twisted.dual_table_s": ("twisted.dual_table", "s"),
    "twisted.sharp_hom_s": ("twisted.sharp_hom", "s"),
    "twisted.modular_s": ("twisted.modular", "s"),
    "twisted.relations_s": ("twisted.relations", "s"),
    "frobenius.linearize_s": ("frobenius.linearize", "s"),
    "frobenius.frobenius_modular_s": ("frobenius.frobenius_modular", "s"),
    "structfile.parse_s": ("structfile.parse", "s"),
    "structfile.serialize_s": ("structfile.serialize", "s"),
    "cli.self_s": ("cli", "s"),
}

# Stage outputs whose coefficient sizes are recorded: for each group, a
# function from the call's result to {stage name: objects to scan}.
_COEFF_OUTPUTS = {
    "catalog.entry": lambda e: {"r_psi": (e.structure.r, e.structure.psi)},
    "structfile.parse": lambda d: {"r_psi": (d.r, d.psi)},
    "frobenius.linearize": lambda st: {"r_psi": (st.r, st.psi)},
    "twisted.carrier_kernel": lambda ck: {"kernel_basis": ck[1]},
    "twisted.dual_table": lambda t: {"dual_table": getattr(t, "table", t)},
    "twisted.modular": lambda rep: {
        "characters": (rep.chi_kernel, rep.chi_quotient),
        "representative": rep.representative,
    },
    "frobenius.frobenius_modular": lambda x: {"representative": x},
}


def coeff_bits(obj) -> tuple[int, int]:
    """Largest numerator and denominator bit lengths of the rationals in obj.

    Walks tuples, lists, dict values and the sparse ``terms`` of cochains
    and multivectors.
    """
    num = den = 0
    stack = [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, (Fraction, int)):
            f = Fraction(x)
            num = max(num, abs(f.numerator).bit_length())
            den = max(den, f.denominator.bit_length())
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif hasattr(x, "terms"):
            stack.extend(x.terms.values())
    return num, den


class Tracer:
    """Spans and counters for the traced phase, one pass at a time."""

    def __init__(self, lib):
        self.lib = lib
        self._patches: list[tuple[object, str, object]] = []
        # [id, parent, name, item, start, end]; recorded while ``record`` is
        # set, which the benchmark keeps on for the first traced pass only
        self.spans: list[list] = []
        self.record = True
        self.item = None
        self._stack: list[list] = []  # [span id, group, start, child time]
        self._elim_depth = 0
        self.coeff: dict[str, list[int]] = {}
        self.reset_pass()

    # -- per-pass aggregation ---------------------------------------------

    def reset_pass(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.elim_cells = 0
        self.elim_max_rows = 0
        self.bytes = 0
        self.root_self = 0.0

    def begin_root(self) -> None:
        self._stack = [[self._new_id(None, "pass"), "pass", perf_counter(), 0.0]]

    def end_root(self) -> None:
        sid, _, start, child = self._stack.pop()
        end = perf_counter()
        self._close(sid, start, end)
        self.root_self = (end - start) - child

    def absorb(self, seconds: float) -> None:
        """Leave out of the innermost open span's self time ``seconds`` that
        the benchmark spent inside it on its own work (clock sampling)."""
        if self._stack:
            self._stack[-1][3] += seconds

    def _new_id(self, parent, name) -> int | None:
        if not self.record:
            return None
        sid = len(self.spans)
        self.spans.append([sid, parent, name, self.item, 0.0, 0.0])
        return sid

    def _close(self, sid, start, end) -> None:
        if sid is not None:
            self.spans[sid][4] = start
            self.spans[sid][5] = end

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str, group: str):
        tracer = self
        coeff = _COEFF_OUTPUTS.get(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            sid = tracer._new_id(parent[0], name)
            elim_outer = group == "linalg.elim" and tracer._elim_depth == 0
            if group == "linalg.elim":
                tracer._elim_depth += 1
            frame = [sid, group, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                parent[3] += duration
                tracer._close(sid, frame[2], end)
                tracer.self_s[group] = tracer.self_s.get(group, 0.0) + duration - frame[3]
                if group == "linalg.elim":
                    tracer._elim_depth -= 1
                if group != "linalg.elim" or elim_outer:
                    tracer.calls[group] = tracer.calls.get(group, 0) + 1
            if elim_outer:
                tracer._count_elimination(name, args)
            elif group == "structfile.parse":
                tracer.bytes += len(args[0])
            elif group == "structfile.serialize":
                tracer.bytes += len(result)
            if coeff is not None:
                for stage, objs in coeff(result).items():
                    num, den = coeff_bits(objs)
                    best = tracer.coeff.setdefault(stage, [0, 0])
                    best[0] = max(best[0], num)
                    best[1] = max(best[1], den)
            return result

        return wrapper

    def _count_elimination(self, name: str, args) -> None:
        m = args[1] if name == "LinearSolver.__init__" else args[0]
        self.elim_cells += m.rows * m.cols
        self.elim_max_rows = max(self.elim_max_rows, m.rows)

    def install(self) -> None:
        modules = [getattr(self.lib, m) for m in MODULES]
        for mod_name, attr, group in ENTRY_POINTS:
            mod = getattr(self.lib, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is None:
                    continue
                self._patch(cls, meth, self._wrap(original, attr, group))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, attr, group)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        out = {}
        for metric, (group, what) in GROUP_METRICS.items():
            if what == "s":
                out[metric] = self.self_s.get(group, 0.0)
            else:
                out[metric] = self.calls.get(group, 0)
        out["linalg.elim_cells"] = self.elim_cells
        out["linalg.elim_max_rows"] = self.elim_max_rows
        out["structfile.bytes"] = self.bytes
        out["trace.root_self_s"] = self.root_self
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "item", "start", "end"],
                    "spans": self.spans,
                },
                fh,
            )
