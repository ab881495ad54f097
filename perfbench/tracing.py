"""Layer spans wrapped around the library from outside it.

``Tracer.install`` replaces the public functions and methods of every
``syncgames`` module, wherever a module namespace holds them, with
wrappers that record a span per call; ``uninstall`` puts the originals
back.  Spans nest on one stack, so each span's self time is its duration
minus the time of the spans it caused.  Per-name totals (calls, inclusive
and self seconds) and a few counters are kept in memory; nothing is
written while the workload runs.

Names that one module imports from another (``clause_access`` inside
``transform``, ``value`` inside ``optimize``) are found by identity and
wrapped in every namespace.  ``optimize`` reaches ``eigh`` through
``np.linalg``, so it gets a copy of numpy whose ``linalg.eigh`` is
wrapped; the eigendecompositions of ``games`` stay under ``games.form``.
Lazy measurement builders, per-game ``decide`` and ``nontrivial``
callables are per-object, so they are wrapped as objects are created.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from time import perf_counter

import numpy as np

from env import LAYERS

# Public methods that get spans.  Cheap accessors called in the innermost
# loops (Game.answers, Measurement.element, TableauLayout.*, IndexMaps.*)
# are left out: their wrappers would cost more than their bodies.
METHODS = {
    "games": {
        "Game": ("accept_mask", "nontrivial_pairs"),
        "SynchronousStrategy": ("validate", "conjugated"),
        "StrategyEvaluator": ("cross_gram", "win_probability", "worst_commutator"),
        "EvaluationReport": ("check_consistency",),
    },
    "algebra": {"Measurement": ("validate",)},
}

BUILDER_SPANS = {
    "syncgames.builtins": "builtins.measurement_build",
    "syncgames.transform": "transform.lift_build",
    "syncgames.games": "games.tensor_build",
}

SEESAW_SUCCESS = 1 - 1e-6


def _cli_span(argv, *_):
    argv = list(argv or ())
    if len(argv) >= 2 and argv[0] in ("game", "cooklevin"):
        return f"cli.{argv[0]}_{argv[1]}"
    return f"cli.{argv[0]}" if argv else "cli.run"


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict = {}  # name -> [calls, inclusive s, self s]
        self.counts: dict = {}
        self.covered = 0.0  # seconds inside root spans
        self._stack: list = []  # [name, child seconds]
        self._restore: list = []
        self._nontrivial_depth = 0

    # -- recording ---------------------------------------------------------

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _push(self, name):
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _pop(self, frame, duration, call):
        self._stack.pop()
        entry = self.stats.get(frame[0])
        if entry is None:
            entry = self.stats[frame[0]] = [0, 0.0, 0.0]
        entry[0] += call
        entry[1] += duration
        entry[2] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.covered += duration

    def wrap(self, name, fn, after=None):
        """Span wrapper; ``name`` may be a callable of the call's arguments."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._push(name(*args, **kwargs) if callable(name) else name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame, perf_counter() - start, 1)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        """Each ``next`` is a span; items count only outside a same-name span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                yield from fn(*args, **kwargs)
                return
            it = fn(*args, **kwargs)
            call = 1
            while True:
                frame = tracer._push(name)
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._pop(frame, perf_counter() - start, call)
                    call = 0
                if not any(f[0] == name for f in tracer._stack):
                    tracer.count(name + ".items")
                yield item

        return traced

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "syncgames" or mod_name.startswith("syncgames.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {name: importlib.import_module(f"syncgames.{name}") for name in LAYERS}
        afters = {
            "games.sampled_value": _after_sampled_value,
            "optimize.seesaw": _after_seesaw,
            "cooklevin.compile_cnf": _after_compile_cnf,
            "serialize.dumps": _after_dumps,
        }
        for short, mod in mods.items():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    span = f"{short}.{name}"
                    if span == "cli.run":  # named per verb below
                        continue
                    self._replace_everywhere(obj, self.wrap(span, obj, afters.get(span)))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    span = f"{short}.{cls_name}.{meth}"
                    after = _after_cross_gram if meth == "cross_gram" else None
                    self._set(cls, meth, self.wrap(span, cls.__dict__[meth], after))

        games, algebra, cli = mods["games"], mods["algebra"], mods["cli"]
        self._set(algebra.Measurement, "__init__",
                  self.wrap("algebra.measurement_new", algebra.Measurement.__init__))
        self._set(games._EigenForm, "__init__",
                  self.wrap("games.form", games._EigenForm.__init__))
        self._replace_everywhere(cli.run, self.wrap(_cli_span, cli.run))
        self._replace_everywhere(cli._read_json, self.wrap("cli.read_json", cli._read_json))

        optimize = mods["optimize"]
        numpy_copy = types.ModuleType(np.__name__)
        numpy_copy.__dict__.update(np.__dict__)
        linalg_copy = types.ModuleType(np.linalg.__name__)
        linalg_copy.__dict__.update(np.linalg.__dict__)
        linalg_copy.eigh = self.wrap("optimize.eigh", np.linalg.eigh)
        numpy_copy.linalg = linalg_copy
        self._set(optimize, "np", numpy_copy)

        self._hook_strategy_init(games.SynchronousStrategy)
        self._hook_game_init(games.Game)

    def uninstall(self):
        self.active = False
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _hook_strategy_init(self, cls):
        tracer, original = self, cls.__init__

        def __init__(strategy, *args, **kwargs):
            original(strategy, *args, **kwargs)
            builder = strategy._builder
            if builder is not None:
                module = getattr(builder, "__module__", "")
                span = BUILDER_SPANS.get(module, "games.strategy_build")
                strategy._builder = tracer.wrap(span, builder)

        self._set(cls, "__init__", __init__)

    def _hook_game_init(self, cls):
        tracer, original = self, cls.__init__

        def __init__(game, *args, **kwargs):
            original(game, *args, **kwargs)
            decide, nontrivial = game.decide, game.nontrivial

            def counted_decide(*a):
                if tracer.active:
                    tracer.count("games.decide")
                return decide(*a)

            def counted_nontrivial(*a):
                outer = tracer._nontrivial_depth == 0
                tracer._nontrivial_depth += 1
                try:
                    result = nontrivial(*a)
                finally:
                    tracer._nontrivial_depth -= 1
                if (outer and result and tracer.active and tracer._stack
                        and tracer._stack[-1][0] == "games.sampled_value"):
                    tracer.count("games.sampled_value.engaged")
                return result

            game.decide = counted_decide
            game.nontrivial = counted_nontrivial

        self._set(cls, "__init__", __init__)


def _after_cross_gram(tracer, args, kwargs, result):
    d = args[0].strategy.dim
    na, nb = result.shape
    # complex d x d product (8 d^3), |w|^2, then the two grouping products
    flop = 8 * d**3 + 3 * d * d + 2 * na * d * d + 2 * na * d * nb + na * nb
    tracer.count("games.cross_gram.flop", flop)


def _after_sampled_value(tracer, args, kwargs, result):
    samples = kwargs["samples"] if "samples" in kwargs else args[2]
    tracer.count("games.sampled_value.samples", samples)


def _after_seesaw(tracer, args, kwargs, result):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[1]
    trace = result[2]
    final = {}
    for restart, _, val in trace:
        final[restart] = val
    tracer.count("optimize.seesaw.sweeps", len(trace) - len(final))
    tracer.count("optimize.seesaw.restarts", cfg.restarts)
    tracer.count("optimize.seesaw.successes", sum(v >= SEESAW_SUCCESS for v in final.values()))


def _after_compile_cnf(tracer, args, kwargs, result):
    tracer.count("cooklevin.compile_cnf.clauses", len(result.clauses))


def _after_dumps(tracer, args, kwargs, result):
    # the renderer emits ASCII only, so characters are bytes
    tracer.count("serialize.dumps.bytes", len(result))


# -- per-layer metrics ------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics, as (value, unit), from one traced run."""
    st, ct = tracer.stats, tracer.counts

    def calls(*names):
        return sum(st.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(st.get(n, (0, 0.0, 0.0))[2] for n in names)

    def incl_s(*names):
        return sum(st.get(n, (0, 0.0, 0.0))[1] for n in names)

    residuals = ("rigidity.ms_residuals", "rigidity.two_of_n_residuals", "rigidity.qs_residuals")
    builds = ("transform.oracularize", "transform.introspect", "transform.answer_reduce",
              "transform.gapless_compress")
    loads = ("cli.read_json", "serialize.strategy_from_doc", "serialize.game_from_doc",
             "serialize.matrix_from_doc", "serialize.measurement_from_doc",
             "serialize.machine_from_doc")
    to_doc = ("serialize.strategy_to_doc", "serialize.measurement_to_doc", "serialize.matrix_to_doc")
    cross = "games.StrategyEvaluator.cross_gram"
    gflop = ct.get("games.cross_gram.flop", 0) / 1e9
    samples = ct.get("games.sampled_value.samples", 0)
    sweeps = ct.get("optimize.seesaw.sweeps", 0)
    dump_bytes = ct.get("serialize.dumps.bytes", 0)
    m = {
        "games.value.calls": (calls("games.value"), "count"),
        "games.value.s": (self_s("games.value"), "s"),
        "games.form.builds": (calls("games.form"), "count"),
        "games.form.s": (self_s("games.form"), "s"),
        "games.cross_gram.calls": (calls(cross), "count"),
        "games.cross_gram.s": (self_s(cross), "s"),
        "games.cross_gram.gflop": (gflop, "Gflop"),
        "games.cross_gram.gflops": (_ratio(gflop, self_s(cross)), "Gflop/s"),
        "games.accept_mask.calls": (calls("games.Game.accept_mask"), "count"),
        "games.accept_mask.s": (self_s("games.Game.accept_mask"), "s"),
        "games.decide.calls": (ct.get("games.decide", 0), "count"),
        "games.nontrivial_pairs.pairs": (ct.get("games.Game.nontrivial_pairs.items", 0), "count"),
        "games.nontrivial_pairs.s": (self_s("games.Game.nontrivial_pairs"), "s"),
        "games.sampled_value.samples_per_s": (_ratio(samples, incl_s("games.sampled_value")), "1/s"),
        "games.sampled_value.engaged_frac": (
            _ratio(ct.get("games.sampled_value.engaged", 0), samples), "fraction"),
        "games.win_probability.calls": (calls("games.StrategyEvaluator.win_probability"), "count"),
        "games.win_probability.s": (self_s("games.StrategyEvaluator.win_probability"), "s"),
        "builtins.measurement_build.calls": (calls("builtins.measurement_build"), "count"),
        "builtins.measurement_build.s": (self_s("builtins.measurement_build"), "s"),
        "algebra.measurement_new.calls": (calls("algebra.measurement_new"), "count"),
        "algebra.measurement_new.s": (self_s("algebra.measurement_new"), "s"),
        "rigidity.residuals.calls": (calls(*residuals), "count"),
        "rigidity.residuals.s": (self_s(*residuals), "s"),
        "optimize.seesaw.sweeps": (sweeps, "count"),
        "optimize.seesaw.s_per_sweep": (_ratio(incl_s("optimize.seesaw"), sweeps), "s"),
        "optimize.seesaw.restart_success_frac": (
            _ratio(ct.get("optimize.seesaw.successes", 0), ct.get("optimize.seesaw.restarts", 0)),
            "fraction"),
        "optimize.eigh.calls": (calls("optimize.eigh"), "count"),
        "optimize.eigh.s": (self_s("optimize.eigh"), "s"),
        "optimize.classical_value.s": (self_s("optimize.classical_value"), "s"),
        "transform.build.s": (self_s(*builds), "s"),
        "transform.synthesize_tm_decider.s": (self_s("transform.synthesize_tm_decider"), "s"),
        "transform.lift_build.calls": (calls("transform.lift_build"), "count"),
        "transform.lift_build.s": (self_s("transform.lift_build"), "s"),
        "cooklevin.tableau_assignment.calls": (calls("cooklevin.tableau_assignment"), "count"),
        "cooklevin.tableau_assignment.s": (self_s("cooklevin.tableau_assignment"), "s"),
        "cooklevin.clause_access.calls": (calls("cooklevin.clause_access"), "count"),
        "cooklevin.clause_access.us_per_call": (
            1e6 * _ratio(self_s("cooklevin.clause_access"), calls("cooklevin.clause_access")), "us"),
        "cooklevin.compile_cnf.s": (self_s("cooklevin.compile_cnf"), "s"),
        "cooklevin.compile_cnf.clauses": (ct.get("cooklevin.compile_cnf.clauses", 0), "count"),
        "serialize.strategy_to_doc.s": (self_s(*to_doc), "s"),
        "serialize.dumps.s": (self_s("serialize.dumps"), "s"),
        "serialize.dumps.bytes": (dump_bytes, "bytes"),
        "serialize.dumps.mb_per_s": (_ratio(dump_bytes / 1e6, self_s("serialize.dumps")), "MB/s"),
        "serialize.load.s": (self_s(*loads), "s"),
        "serialize.cnf_to_dimacs.s": (self_s("serialize.cnf_to_dimacs"), "s"),
        "cli.game_show.s": (self_s("cli.game_show"), "s"),
        "cli.eval.s": (self_s("cli.eval"), "s"),
        "cli.transform.s": (self_s("cli.transform"), "s"),
        "cli.cooklevin_compile.s": (self_s("cli.cooklevin_compile"), "s"),
        "cli.cooklevin_clause.s": (self_s("cli.cooklevin_clause"), "s"),
        "cli.ncpo.s": (self_s("cli.ncpo"), "s"),
        "ncpo.game_to_ncpo.s": (self_s("ncpo.game_to_ncpo"), "s"),
    }
    return m
