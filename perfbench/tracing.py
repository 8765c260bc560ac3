"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each ``mathmorph`` module,
and the ``ExactSolver`` stages, with spans that record calls and self time
(a span's duration minus the time of the spans it encloses).  The modules
import with ``from .x import f``, so a wrapper is bound in every module that
binds the original.  Wrappers keep the original's name: the program
records ``step.__name__`` in its output.  A target that no longer resolves
is reported as missing and its metrics are left out; it never stops a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# (metric prefix, "module:attribute path", kind); kind is "span" (calls
# and self time), "tried" (also the calls that raised), "count" (calls
# only, to keep the overhead down) or one of the special hooks below
HOOKS = [
    ("minisolver.propagate", "minisolver:ExactSolver._propagate", "span"),
    ("minisolver.linear_pin", "minisolver:ExactSolver._linear_pin", "span"),
    ("minisolver.int_search", "minisolver:ExactSolver._int_search", "span"),
    ("minisolver.real_stage", "minisolver:ExactSolver._real_stage", "span"),
    ("minisolver.solve_exact", "minisolver:solve_exact", "span"),
    ("minisolver", "minisolver:ExactSolver.solve", "nodes"),
    ("complicate.sample_aux_solution", "complicate:sample_aux_solution",
     "mcmc"),
    ("complicate.complicate_expression", "complicate:complicate_expression",
     "tried"),
    ("complicate.complicate_constraint", "complicate:complicate_constraint",
     "tried"),
    ("complicate.mutate_to_level", "complicate:mutate_to_level", "levels"),
    ("solver.solve", "solver:solve", "solve"),
    ("solver.numeric_fallback_solve", "solver:numeric_fallback_solve",
     "solve"),
    ("solver.gateway", "solver:subprocess.run", "gateway"),
    ("solver.build_script", "solver:build_script", "span"),
    ("solver.parse_reply", "solver:parse_reply", "span"),
    ("parser.parse", "parser:parse", "span"),
    ("printer.canonical_print", "printer:canonical_print", "span"),
    ("simplify.simplify_level0", "simplify:simplify_level0", "span"),
    ("simplify.tactic_simplify", "simplify:tactic_simplify", "tried"),
    ("simplify.tactic_gaussian_elim", "simplify:tactic_gaussian_elim",
     "tried"),
    ("simplify.tactic_elim_term_ite", "simplify:tactic_elim_term_ite",
     "tried"),
    ("simplify.tactic_qe", "simplify:tactic_qe", "tried"),
    ("algebra.fold_constraint", "algebra:fold_constraint", "count"),
    ("funcs.eval_expression", "funcs:eval_expression", "count"),
    ("informalize.informalize", "informalize:informalize", "span"),
    ("informalize.generate_reasoning", "informalize:generate_reasoning",
     "span"),
    ("informalize.consistency_check", "informalize:consistency_check",
     "verdict"),
    ("pipeline.generate_dataset", "pipeline:generate_dataset", "rejects"),
    ("pipeline.verify_dataset", "pipeline:verify_dataset", "span"),
]

# metrics each hook kind yields, by suffix; the traced run reports these
KIND_STATS = {
    "span": ("calls", "self_s"),
    "tried": ("calls", "self_s", "fail"),
    "count": ("calls",),
    "nodes": ("dfs_nodes", "nodes_per_solve_p90"),
    "mcmc": ("calls", "self_s"),
    "levels": ("self_s",),
    "solve": ("calls", "self_s"),
    "gateway": ("calls", "wait_s"),
    "verdict": ("calls", "fail"),
    "rejects": ("self_s",),
}

# the counts a later change may cite: they must repeat exactly
DETERMINISTIC = ("minisolver.dfs_nodes", "solver.solve.calls",
                 "complicate.mcmc.proposals")


class _SubprocessView:
    """The ``subprocess`` module as ``solver`` sees it, with ``run``
    replaced."""

    def __init__(self, real, run):
        self._real = real
        self.run = run

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.stats = defaultdict(float)
        self.rejects = defaultdict(int)
        self.missing = []
        self._stack = []          # per open span: [child seconds, counts]
        self._exact = []          # DFS nodes of nested ExactSolver.solve
        self._node_samples = []
        self._paused = 0
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, key, fn, after=None, time_stat="self_s"):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            frame = [0.0, defaultdict(int)]
            tracer._stack.append(frame)
            result, failed = None, False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                failed = True
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                st = tracer.stats
                st[key + ".calls"] += 1
                st[key + "." + time_stat] += dt - frame[0]
                if failed:
                    st[key + ".fail"] += 1
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                    tracer._stack[-1][1][key] += 1
                if after is not None:
                    after(args, kwargs, result, failed, frame[1])
        return wrapper

    def _count(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._paused:
                tracer.stats[key + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _nodes(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(solver, *args, **kwargs):
            if tracer._paused:
                return fn(solver, *args, **kwargs)
            tracer._exact.append(0)
            try:
                return fn(solver, *args, **kwargs)
            finally:
                total = tracer._exact.pop() + solver.nodes
                tracer.stats["minisolver.dfs_nodes"] += solver.nodes
                if tracer._exact:
                    tracer._exact[-1] += total
                else:
                    tracer._node_samples.append(total)
        return wrapper

    def _mcmc_after(self, fn):
        """Proposals are the walk's solver calls; one more call than
        ``max_iters`` means the walk was exhausted and the solver chose
        every auxiliary value."""
        from mathmorph.complicate import McmcConfig
        sig = inspect.signature(fn)

        def after(args, kwargs, result, failed, children):
            try:
                cfg = sig.bind(*args, **kwargs).arguments.get("cfg")
            except TypeError:
                cfg = None
            max_iters = (cfg or McmcConfig()).max_iters
            solves = children.get("solver.solve", 0)
            st = self.stats
            if solves > max_iters:
                st["complicate.mcmc.exhausted"] += 1
                st["complicate.mcmc.proposals"] += max_iters
            else:
                st["complicate.mcmc.proposals"] += solves
                if not failed:
                    st["complicate.mcmc.accepted"] += 1
        return after

    def _levels_after(self, args, kwargs, result, failed, children):
        if not failed:
            self.stats["complicate.steps_skipped"] += sum(
                1 for r in result[1] if r.parameters.get("skipped"))

    def _solve_after(self, key):
        def after(args, kwargs, result, failed, children):
            if not failed:
                self.stats[f"{key}.{result.status}"] += 1
        return after

    def _verdict_after(self, args, kwargs, result, failed, children):
        if not failed and not result.consistent:
            self.stats["informalize.consistency_check.fail"] += 1

    def _rejects_after(self, fn):
        sig = inspect.signature(fn)

        def after(args, kwargs, result, failed, children):
            bound = sig.bind(*args, **kwargs).arguments
            path = bound.get("rejects_path") or f"{bound['out_path']}.rejects"
            try:
                with open(path, encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
            except OSError:
                return
            for line in lines:
                reason = json.loads(line).get("reason", "")
                self.rejects[reason.split(":")[0]] += 1
                self.stats["pipeline.rejects"] += 1
        return after

    # -- install / remove ---------------------------------------------------

    def install(self, endpoint_cls=None):
        for key, target, kind in HOOKS:
            try:
                self._install_one(key, target, kind)
            except (ImportError, AttributeError):
                self.missing.append(key)
        if endpoint_cls is not None:
            self._set(endpoint_cls, "complete", self._endpoint_span(
                endpoint_cls.complete))

    def _endpoint_span(self, fn):
        """Wrap an endpoint's ``complete``.  Everything it calls, the
        stub's own solving included, is endpoint time and is not traced."""
        tracer = self

        @functools.wraps(fn)
        def untraced(*args, **kwargs):
            tracer._paused += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._paused -= 1
        return self._span("endpoint.complete", untraced)

    def _install_one(self, key, target, kind):
        modname, path = target.split(":")
        module = importlib.import_module("mathmorph." + modname)
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        if kind == "gateway":
            view = _SubprocessView(owner, self._span(
                key, original, time_stat="wait_s"))
            self._set(module, owner_path, view)
            return
        if kind == "count":
            wrapper = self._count(key, original)
        elif kind == "nodes":
            wrapper = self._nodes(original)
        else:
            wrapper = self._span(key, original,
                                 self._after(kind, key, original))
        if inspect.isclass(owner):
            self._set(owner, attr, wrapper)
        else:
            self._rebind(original, wrapper)

    def _after(self, kind, key, original):
        """The hook a span of this kind calls when it closes, if any."""
        if kind == "mcmc":
            return self._mcmc_after(original)
        if kind == "solve":
            return self._solve_after(key)
        if kind == "rejects":
            return self._rejects_after(original)
        return {"levels": self._levels_after,
                "verdict": self._verdict_after}.get(kind)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name != "mathmorph" and not name.startswith("mathmorph."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric of the installed hooks, by name."""
        st = self.stats
        out = {}
        for key, _, kind in HOOKS:
            if key in self.missing:
                continue
            for stat in KIND_STATS[kind]:
                name = f"{key}.{stat}"
                out[name] = st.get(name, 0.0)
        if "minisolver" not in self.missing:
            samples = sorted(self._node_samples)
            out["minisolver.nodes_per_solve_p90"] = \
                float(samples[int(len(samples) * 0.9)]) if samples else 0.0
        if "complicate.sample_aux_solution" not in self.missing:
            calls = st.get("complicate.sample_aux_solution.calls", 0.0)
            proposals = st.get("complicate.mcmc.proposals", 0.0)
            out["complicate.mcmc.proposals"] = proposals
            out["complicate.mcmc.accept_ratio"] = \
                st.get("complicate.mcmc.accepted", 0.0) / proposals \
                if proposals else 0.0
            out["complicate.mcmc.exhausted_share"] = \
                st.get("complicate.mcmc.exhausted", 0.0) / calls \
                if calls else 0.0
        if "complicate.mutate_to_level" not in self.missing:
            out["complicate.steps_skipped"] = \
                st.get("complicate.steps_skipped", 0.0)
        if "solver.solve" not in self.missing:
            out["solver.solve.unknown"] = st.get("solver.solve.unknown", 0.0)
        if "solver.numeric_fallback_solve" not in self.missing:
            calls = st.get("solver.numeric_fallback_solve.calls", 0.0)
            out["solver.numeric_fallback_solve.sat_ratio"] = \
                st.get("solver.numeric_fallback_solve.sat", 0.0) / calls \
                if calls else 0.0
        if "pipeline.generate_dataset" not in self.missing:
            out["pipeline.rejects"] = st.get("pipeline.rejects", 0.0)
        out["endpoint.complete.self_s"] = \
            st.get("endpoint.complete.self_s", 0.0)
        return out
