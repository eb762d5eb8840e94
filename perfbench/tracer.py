"""Layer spans recorded by wrapping twirlsim's public functions from outside.

A Tracer replaces each listed function with a wrapper in every twirlsim
module namespace that binds it (``twirling.char_minus`` and
``distributions.char_minus`` are separate bindings of one function), so calls
made inside the package are seen too. Methods are wrapped on their class.
Wrappers are installed only around the operations being traced and removed
afterwards, so untraced operations run the original code.

A span is ``[name, section, start, end, parent]``. Spans are kept in memory
for one operation, folded into per-layer totals when the operation ends, and
a bounded sample is kept for writing out at the end of the run. Self time is
a span's duration minus the part of it that its children cover; children on
the pool's worker threads may overlap, so the covered part is the union of
their intervals.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# <module>.<function> or <module>.<Class>.<method>, relative to the package
LAYER_FUNCTIONS = (
    "linalg.eig_hermitian",
    "linalg.HermitianOperator.unitary_at",
    "distributions.char_minus",
    "distributions.sample_law",
    "channels.apply_schur",
    "channels.cptp_check",
    "channels.superoperator_of_schur",
    "channels.choi_of_superoperator",
    "channels.choi_trace_distance",
    "channels.apply_choi",
    "twirling.schur_multiplier_for",
    "sampling.derived_rng",
    "sampling.sample_truncated_normal",
    "sampling.poisson_by_inversion",
    "sampling.estimate_channel",
    "sampling.estimate_compound_channel",
    "config.parse_config",
    "config.build_distribution",
    "pauli.parse_pauli_sum",
    "matio.write_matrix",
    "verify.run_verification",
    "cvqpe.resolve_spectrum",
    "cli.main",
)

PACKAGE = "twirlsim"
SPAN_SAMPLE_LIMIT = 20000


def _resolve(qualname: str):
    """(owner, attribute) of a layer function, or None if it no longer exists."""
    module_name, _, rest = qualname.partition(".")
    owner = sys.modules.get(f"{PACKAGE}.{module_name}")
    if owner is None:
        return None
    *path, attr = rest.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[id(span[4])].append((span[2], span[3]))
    out = []
    for span in spans:
        start, end = span[2], span[3]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(id(span), ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans around the listed twirlsim functions while installed."""

    def __init__(self):
        self.functions = LAYER_FUNCTIONS
        self.section = ""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.section_totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.top_level_s = 0.0
        self.sample: list[list] = []
        self._spans: list[list] = []
        self._main_stack: list[list] = []
        self._stacks = {threading.get_ident(): self._main_stack}
        self._patches = self._build_patches()

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        wrappers = {}  # id(original) -> wrapper
        owners = [m for n, m in sorted(sys.modules.items())
                  if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for qualname in self.functions:
            found = _resolve(qualname)
            if found is None:
                continue
            owner, attr = found
            original = vars(owner)[attr]
            wrappers[id(original)] = self._wrap(qualname, original)
            if isinstance(owner, type):
                owners.append(owner)
        patches = []
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    patches.append((owner, attr, value, wrapper))
        return patches

    def _wrap(self, name: str, fn):
        spans = self._spans
        stacks = self._stacks
        main = self._main_stack
        now = time.perf_counter
        ident = threading.get_ident
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stacks.get(ident())
            if stack is None:
                stack = stacks.setdefault(ident(), [])
            if stack:
                parent = stack[-1]
            elif stack is not main and main:
                parent = main[-1]  # pool worker: caused by the caller's open span
            else:
                parent = None
            span = [name, tracer.section, now(), 0.0, parent]
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = now()
                stack.pop()

        return traced

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def set_section(self, section: str) -> None:
        self.section = section

    def end_op(self) -> None:
        """Fold the finished operation's spans into the totals and clear them."""
        spans = self._spans
        for span, own in zip(spans, self_times(spans)):
            name, section, start, end, parent = span
            self.calls[name] += 1
            self.self_s[name] += own
            totals = self.section_totals[(section, name)]
            totals[0] += 1
            totals[1] += end - start
            totals[2] += own
            if parent is None:
                self.top_level_s += end - start
        room = SPAN_SAMPLE_LIMIT - len(self.sample)
        if room > 0:
            self.sample.extend(spans[:room])
        spans.clear()
        self.section = ""

    def sample_records(self) -> list[dict]:
        """The kept spans with parents as indices into the same list."""
        index = {id(span): i for i, span in enumerate(self.sample)}
        return [{"name": s[0], "section": s[1], "start": s[2], "end": s[3],
                 "parent": index.get(id(s[4])) if s[4] is not None else None}
                for s in self.sample]
