"""Feasibility toolkit for API-level construction robot schedules.

Validate, repair, simulate and score six-field command plans against
declarative scenarios.  The API lives in the submodules, and the package
root holds only ``__version__`` and the ``record`` helper:

- ``plan``: the plan text grammar (``parse_plan``, ``serialize_plan``);
- ``scenario``: scenario files and the site model (``load_scenario``);
- ``executor``: ground-truth replay of a plan (``execute``);
- ``validator``: typed feasibility checks (``validate``);
- ``repair``: the deterministic minimal-edit search supervisor
  (``minimal_edit_repair``, ``repair_loop``);
- ``gateway``: the LLM supervisor gateway with offline mocks;
- ``fcfs``: the FCFS baseline scheduler (``fcfs_schedule``);
- ``metrics``: similarity metrics over plan tokens;
- ``experiment``: the end-to-end experiment pipeline (``run_experiment``);
- ``cli``: the ``foreman`` command, which imports only what a command runs.

Each record is a slotted class that declares its fields once, in order, as
annotations with optional defaults, under ``@record()``; the decorator
writes its ``__init__`` (and, where asked, ``__eq__``, ``__hash__`` and
``__repr__``), so that no import pays for ``dataclasses``.  Two records
keep a hand-written ``__init__`` because it does work: ``SiteMap`` (its hop
table) and ``Scenario`` (its indexes).
Records are read-only by convention, except what a run updates in place:
``WorldState`` and its ``RobotState``s, ``CheckState``, and the
``PlanStep``s that ``repair.reconcile_plan`` fills in.  The test suite
holds every other record to it: each field may be set once.
"""

__version__ = "0.1.0"


def record(*, eq=False, hash=False, repr=False):
    """Class decorator: turn a class whose body declares its fields as
    annotations (``name: type`` or ``name: type = default``) into a slotted
    class with those fields, in declaration order.

    It generates ``__init__(self, <fields>)``, which stores each argument
    (positional or keyword; each default is bound once, as the declared
    object), and only when asked: ``__eq__`` (same class and equal fields,
    else ``NotImplemented``), ``__hash__`` (the hash of the field tuple) and
    the dataclass-style ``__repr__``.  A record with ``__eq__`` but no
    ``__hash__`` is unhashable; one without ``__eq__`` compares by identity.
    There is no ordering, no frozen flag and no per-field option.  All
    methods of one record come from one ``exec``, and their code is filed as
    ``<record Name>``, which is what a traceback through them shows.
    """

    def build(cls):
        name, fields = cls.__name__, tuple(cls.__annotations__)
        body = {k: v for k, v in cls.__dict__.items() if k not in fields and k not in ("__dict__", "__weakref__")}
        made = {f"_{f}": cls.__dict__[f] for f in fields if f in cls.__dict__}  # the defaults, by name
        params = ", ".join(f"{f}=_{f}" if f"_{f}" in made else f for f in fields)
        mine, theirs = "".join(f"self.{f}, " for f in fields), "".join(f"other.{f}, " for f in fields)
        src = [f"def __init__(self, {params}):"] + [f"    self.{f} = {f}" for f in fields]
        if eq:
            src += ["def __eq__(self, other):", "    if other.__class__ is not self.__class__:",
                    "        return NotImplemented", f"    return ({mine}) == ({theirs})"]
        if hash:
            src += ["def __hash__(self):", f"    return hash(({mine}))"]
        if repr:
            shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
            src += ["def __repr__(self):", f"    return f'{name}({shown})'"]
        exec(compile("\n".join(src), f"<record {name}>", "exec"), made)
        for method in ("__init__", "__eq__", "__hash__", "__repr__"):
            if method in made:
                made[method].__qualname__ = f"{cls.__qualname__}.{method}"
                body[method] = made[method]
        body["__slots__"], body["__qualname__"] = fields, cls.__qualname__
        return type(name, cls.__bases__, body)

    return build
