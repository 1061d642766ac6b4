"""Per-layer tracing of one gatedmem CLI stage, applied from outside the package.

Run as a child process in place of ``python -m gatedmem.cli``:

    python perfbench/tracer.py OUT.json <gatedmem cli arguments...>

It imports every module of the ``gatedmem`` package, wraps each public
function and each public method of the classes a module defines, replaces
every module attribute that aliases a wrapped function (``controller.retrieve``
is the same object as ``retrieval.retrieve``), checks that no alias was missed,
then runs ``gatedmem.cli.main`` and writes the aggregated spans to OUT.json.

Layers are the package's modules; ``kernels`` belongs to ``stats``. The ``io``
layer is every ``write_*`` and ``save*`` function or method, plus ``json.dump``
as called from the package (the CLI writes its larger JSON outputs inline).

Spans are aggregated as they close, not kept: a stage makes up to a few
million wrapped calls, which would not fit in memory as span records.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
import types

PACKAGE = "gatedmem"

# module -> layer; None marks a module that must define no function
MODULE_LAYERS = {
    "cli": "cli",
    "protocol": "protocol",
    "controller": "controller",
    "retrieval": "retrieval",
    "worldsim": "worldsim",
    "bank": "bank",
    "stats": "stats",
    "kernels": "stats",
    "util": "util",
    "errors": None,
}


def layer_for(module_layer: str, name: str) -> str:
    return "io" if name.startswith(("write_", "save")) else module_layer


class Tracer:
    """Aggregated spans: calls, inclusive and self time per function, self time per layer.

    A span's self time is its duration minus the durations of the spans it
    directly encloses. Inclusive time counts only the outermost active call of
    a function, so recursion is not counted twice.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # one [child_time] cell per open span
        self.funcs: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s, depth]
        self.layers: dict[str, list] = {}  # layer -> [self_s]
        self.counters: dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def report(self) -> dict:
        return {
            "layer_self_s": {k: v[0] for k, v in self.layers.items()},
            "funcs": {
                k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]} for k, v in self.funcs.items()
            },
            "counters": dict(self.counters),
        }


def wrap(fn, name: str, layer: str, tracer: Tracer, observe=None):
    """A traced stand-in for fn; observe(args, kwargs, result) runs after the span.

    The span bookkeeping is inlined on local cells because it runs on every
    wrapped call and its cost is the tracing overhead.
    """
    stats = tracer.funcs.setdefault(name, [0, 0.0, 0.0, 0])
    layer_self = tracer.layers.setdefault(layer, [0.0])
    stack = tracer.stack
    clock = tracer.clock

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        children = [0.0]
        stack.append(children)
        stats[3] += 1
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            stats[3] -= 1
            stats[0] += 1
            if not stats[3]:
                stats[1] += duration
            own = duration - children[0]
            stats[2] += own
            layer_self[0] += own
        if observe is not None:
            observe(args, kwargs, result)
        return result

    return traced


# ---------------------------------------------------------------------------
# counters read from arguments and results at the layer boundary
# ---------------------------------------------------------------------------

def make_observers(tracer: Tracer, originals: dict) -> dict:
    """Counter hooks keyed by the traced name of the function they observe."""
    seen_retrievals: set = set()
    seen_pairs: set = set()
    params = {name: list(inspect.signature(fn).parameters.values()) for name, fn in originals.items()}

    def bound(name, args, kwargs) -> dict:
        # inspect.Signature.bind costs more than most wrapped calls; positional
        # and keyword arguments of these functions map directly
        out = {p.name: p.default for p in params[name] if p.default is not p.empty}
        out.update(zip((p.name for p in params[name]), args))
        out.update(kwargs)
        return out

    def run_step(args, kwargs, step):
        tracer.count("controller.steps")
        tracer.count("controller.routed", step.routed)
        tracer.count("controller.accepted", step.accepted)

    def can_route(args, kwargs, allowed):
        # run_step asks only when the step wants to route; the baseline
        # comparator runs with budget_B = 0 and is blocked by construction
        if args[0].budget_B != 0:
            tracer.count("controller.budget_blocked", not allowed)

    def retrieve(args, kwargs, result):
        a = bound("retrieval.retrieve", args, kwargs)
        key = (
            a["query"].id,
            a["query"].embedding.tobytes(),
            a["snapshot"].content_hash,
            a["threshold"],
            a["k_max"],
        )
        tracer.count("retrieval.retrieve.calls")
        tracer.count("retrieval.retrieve.repeats", key in seen_retrievals)
        seen_retrievals.add(key)

    def pair_draws(args, kwargs, result):
        a = bound("worldsim.World.pair_draws", args, kwargs)
        key = (a["self"].seed, a["idx"], a["entry_id"])
        tracer.count("worldsim.pair_draws.calls")
        tracer.count("worldsim.pair_draws.repeats", key in seen_pairs)
        seen_pairs.add(key)

    def guard_results(args, kwargs, results):
        tracer.count("worldsim.guard_results.failing", not all(results.values()))

    def retirement_sweep(args, kwargs, retired):
        tracer.count("bank.retired", len(retired))

    def bootstrap_ci(args, kwargs, result):
        # computed: the (B x n) int64 index matrix plus the (B x n) float64 gather
        a = bound("stats.bootstrap_ci", args, kwargs)
        n = len(a["diffs"])
        tracer.count("stats.bootstrap_ci.computed_bytes", 16 * a["n_resamples"] * n)

    def randomization(args, kwargs, result):
        # computed: (P x N) float64 uniforms and int64 argpartition, (P x h) float64 gather
        a = bound("stats.randomization_interaction_test", args, kwargs)
        h, total = len(a["hit_diffs"]), len(a["hit_diffs"]) + len(a["non_hit_diffs"])
        p = a["n_permutations"]
        tracer.count("stats.randomization_interaction_test.computed_bytes", 16 * p * total + 8 * p * h)

    def run_counterfactual(args, kwargs, result):
        _, audit = result
        tracer.count("protocol.counterfactual.rows", audit["n_rows"])
        tracer.count("protocol.counterfactual.hit_rows", audit["n_hit"])

    return {
        "protocol.run_counterfactual": run_counterfactual,
        "controller.run_step": run_step,
        "controller.BudgetState.can_route": can_route,
        "retrieval.retrieve": retrieve,
        "worldsim.World.pair_draws": pair_draws,
        "worldsim.World.guard_results": guard_results,
        "bank.MemoryBank.retirement_sweep": retirement_sweep,
        "stats.bootstrap_ci": bootstrap_ci,
        "stats.randomization_interaction_test": randomization,
    }


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------

def load_package_modules() -> dict:
    """Import every module of the package; a module without a layer is an error."""
    pkg = importlib.import_module(PACKAGE)
    modules = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name not in MODULE_LAYERS:
            raise RuntimeError(
                f"{PACKAGE}.{info.name} has no layer; add it to MODULE_LAYERS in {__file__}"
            )
        modules[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return modules


def _defined_here(obj, module) -> bool:
    code = getattr(obj, "__code__", None)
    return code is not None and code.co_filename == module.__file__


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _targets(short: str, module):
    """(owner, attribute, traced name, function, kind) for every public function."""
    for attr, value in vars(module).items():
        if isinstance(value, types.FunctionType) and _public(attr) and _defined_here(value, module):
            yield module, attr, f"{short}.{value.__name__}", value, None
        elif (
            isinstance(value, type)
            and value.__module__ == module.__name__
            and not issubclass(value, BaseException)
        ):
            for mname, member in list(vars(value).items()):
                kind = type(member) if isinstance(member, (staticmethod, classmethod)) else None
                fn = member.__func__ if kind else member
                if isinstance(fn, types.FunctionType) and _public(mname) and _defined_here(fn, module):
                    yield value, mname, f"{short}.{value.__name__}.{mname}", fn, kind


def install(tracer: Tracer, modules: dict) -> dict:
    """Wrap every public function; return {id(original): traced} for the alias check."""
    found = []
    for short, module in modules.items():
        for target in _targets(short, module):
            if MODULE_LAYERS[short] is None:
                raise RuntimeError(f"{target[2]} is defined in {PACKAGE}.{short}, which has no layer")
            found.append((short, *target))

    originals = {name: fn for _, _, _, name, fn, _ in found}
    observers = make_observers(tracer, originals)
    replacements: dict[int, object] = {}
    for short, owner, attr, name, fn, kind in found:
        if id(fn) not in replacements:
            layer = layer_for(MODULE_LAYERS[short], attr)
            replacements[id(fn)] = wrap(fn, name, layer, tracer, observers.get(name))
        traced = replacements[id(fn)]
        setattr(owner, attr, kind(traced) if kind else traced)

    json_proxy = types.ModuleType("json")
    json_proxy.__dict__.update(vars(json))
    json_proxy.dump = wrap(json.dump, "json.dump", "io", tracer)
    everywhere = [importlib.import_module(PACKAGE), *modules.values()]
    for module in everywhere:
        for attr, value in list(vars(module).items()):
            if id(value) in replacements and value is not replacements[id(value)]:
                setattr(module, attr, replacements[id(value)])
            elif value is json:
                setattr(module, attr, json_proxy)
    check_no_unwrapped(everywhere, {id(fn): fn for *_, fn, _ in found})
    return replacements


def _references(value):
    """Objects a module-level value can hand a caller without an attribute lookup."""
    if isinstance(value, dict):
        yield from value.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        yield from value
    elif isinstance(value, types.FunctionType):
        yield from value.__defaults__ or ()
        yield from (value.__kwdefaults__ or {}).values()
        for cell in value.__closure__ or ():
            try:
                yield cell.cell_contents
            except ValueError:  # empty cell
                pass


def check_no_unwrapped(modules, originals: dict) -> None:
    """Raise if any module still reaches an original (untraced) function.

    originals maps id(function) to the function, which keeps the ids valid.
    """
    missed = []
    for module in modules:
        for attr, value in vars(module).items():
            holders = [(attr, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                holders += [(f"{attr}.{k}", getattr(v, "__func__", v)) for k, v in vars(value).items()]
            for where, obj in holders:
                if id(obj) in originals:
                    missed.append(f"{module.__name__}.{where} is {obj.__qualname__}")
                elif id(getattr(obj, "__wrapped__", None)) not in originals:  # a wrapper holds its original
                    missed += [
                        f"{module.__name__}.{where} -> {ref.__qualname__}"
                        for ref in _references(obj)
                        if id(ref) in originals
                    ]
    if missed:
        raise RuntimeError("untraced references to wrapped functions: " + ", ".join(sorted(missed)))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py OUT.json <gatedmem cli arguments...>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    modules = load_package_modules()
    install(tracer, modules)
    try:
        rc = modules["cli"].main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
