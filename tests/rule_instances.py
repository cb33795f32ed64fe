"""Per-rule random instance builders for the rewrite catalog.

Each builder returns an Instance whose term is guaranteed to match its rule
at the recorded path, alongside a database the term can be evaluated on.
Shared by the rewrite tests and the acceptance gate.
"""

from a3d.algebra import (
    Aggregate,
    AggSpec,
    ArrayFilter,
    ArrayJoin,
    Derive,
    Filter,
    Join,
    Project,
    RelVar,
    Relation,
    Schema,
)
from a3d.functions import ScalarFn
from a3d.predicates import And, Cmp, Col, Lit, Not, Or, pred_columns

from gen_utils import (
    INT,
    STR,
    array_value,
    build_relation,
    random_pred,
    scalar_value,
)


class Instance:
    def __init__(self, term, db, schemas, correspondences=(), path=()):
        self.term = term
        self.db = db
        self.schemas = schemas
        self.correspondences = correspondences
        self.path = path


GENS = {}


def _gen(rule_id):
    def register(fn):
        GENS[rule_id] = fn
        return fn
    return register


############################################################
# base relations
############################################################

T_TYPES = {"k": INT, "x": INT, "w": INT, "s": STR,
           "a": INT, "b": INT, "c": STR}
U_TYPES = {"k": INT, "z": INT, "d": INT}


def _rel_t(rng, nmin=0, nmax=8):
    return build_relation(rng, "t",
                          [("k", INT), ("x", INT), ("w", INT), ("s", STR)],
                          [[("a", INT), ("b", INT)], [("c", STR)]],
                          rng.randint(nmin, nmax))


def _rel_u(rng, nmin=0, nmax=8):
    return build_relation(rng, "u", [("k", INT), ("z", INT)],
                          [[("d", INT)]], rng.randint(nmin, nmax))


def _single(rng, term_fn, **kw):
    t = _rel_t(rng)
    corr = kw.pop("correspondences", [("a", "b")])
    return Instance(term_fn(RelVar("t")), {"t": t.relation},
                    {"t": t.schema}, corr, **kw)


def _pair(rng, term_fn, **kw):
    t, u = _rel_t(rng), _rel_u(rng)
    corr = kw.pop("correspondences", [("a", "b")])
    return Instance(term_fn(Join(RelVar("t"), RelVar("u"))),
                    {"t": t.relation, "u": u.relation},
                    {"t": t.schema, "u": u.schema}, corr, **kw)


def _t_scalar_pred(rng):
    return random_pred(rng, ["k", "x", "w", "s"], T_TYPES)


def _invertible_pred(rng, col, depth=1):
    """Bare Col-vs-Lit comparisons only, so affine inversion always succeeds."""
    if depth > 0 and rng.random() < 0.35:
        parts = tuple(_invertible_pred(rng, col, depth - 1)
                      for _ in range(rng.randint(2, 3)))
        shape = rng.random()
        if shape < 0.45:
            return And(parts)
        if shape < 0.9:
            return Or(parts)
        return Not(parts[0])
    op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
    return Cmp(op, Col(col), Lit(rng.randrange(-6, 15)))


def _mu_targets(rng, pairs_ok=True):
    shape = rng.random()
    if pairs_ok and shape < 0.4:
        return (("a", "ea"), ("b", "eb"))
    if shape < 0.7:
        return (("a", "ea"),)
    return (("c", "ec"),)


def _alias_types(targets):
    return {alias: T_TYPES[src] for src, alias in targets}


############################################################
# filters / projections
############################################################

@_gen("R1")
def gen_r1(rng):
    p1 = _t_scalar_pred(rng)
    p2 = _t_scalar_pred(rng)
    while p2 == p1:        # identical filters make the swap a no-op
        p2 = _t_scalar_pred(rng)
    return _single(rng, lambda t: Filter(p1, Filter(p2, t)))


@_gen("R2.1")
def gen_r2_1(rng):
    targets = _mu_targets(rng)
    consumed = {s for s, _ in targets}
    free_arrays = [c for c in ("a", "b", "c") if c not in consumed]
    pred = random_pred(rng, ["k", "x", "w", "s"], T_TYPES,
                       array_cols=free_arrays)
    return _single(rng, lambda t: Filter(pred, ArrayJoin(targets, t)))


@_gen("R2.2")
def gen_r2_2(rng):
    targets = _mu_targets(rng)
    aliases = [a for _, a in targets]
    pred = random_pred(rng, aliases, _alias_types(targets))
    return _single(rng, lambda t: Filter(pred, ArrayJoin(targets, t)))


@_gen("R2.3")
def gen_r2_3(rng):
    targets = _mu_targets(rng)
    if rng.random() < 0.4:
        pred = _t_scalar_pred(rng)   # never equals the emptiness guard
        return _single(rng, lambda t: ArrayJoin(targets, Filter(pred, t)))
    return _single(rng, lambda t: ArrayJoin(targets, t))


@_gen("R2.4")
def gen_r2_4(rng):
    # one to three of t's arrays, all of one length here, under two stacked
    # arrayFilters; the outer one keeps the inner aliases (as R2.2 builds
    # it), renames them to fresh names, permutes them, or names them after
    # the consumed sources
    t = build_relation(rng, "t", [("k", INT), ("x", INT)],
                       [[("a", INT), ("b", INT), ("c", STR)]],
                       rng.randint(0, 8))
    srcs = rng.sample(("a", "b", "c"), rng.randint(1, 3))
    aliases = ["f" + s for s in srcs]
    renamed = rng.choice((aliases, ["g" + s for s in srcs],
                          rng.sample(aliases, len(aliases)),
                          rng.sample(srcs, len(srcs))))
    outer = list(zip(aliases, renamed))
    rng.shuffle(outer)
    types = {a: T_TYPES[s] for s, a in zip(srcs, aliases)}
    out_types = {b: types[a] for a, b in outer}
    p1 = random_pred(rng, aliases, types, depth=1)
    p2 = random_pred(rng, list(out_types), out_types, depth=1)
    term = ArrayFilter(tuple(outer), p2,
                       ArrayFilter(tuple(zip(srcs, aliases)), p1,
                                   RelVar("t")))
    return Instance(term, {"t": t.relation}, {"t": t.schema},
                    [("a", "b", "c")])


@_gen("R3")
def gen_r3(rng):
    pred = _t_scalar_pred(rng)
    extra = rng.sample(["k", "x", "w", "s", "a", "b", "c"],
                       rng.randint(0, 4))
    cols = tuple(sorted(pred_columns(pred) | set(extra)))
    return _single(rng, lambda t: Project(cols, Filter(pred, t)))


@_gen("R9")
def gen_r9(rng):
    t_part = rng.sample(["x", "w", "s", "a", "b", "c"], rng.randint(0, 3))
    u_part = rng.sample(["z", "d"], rng.randint(0, 1))
    cols = tuple(sorted({"k"} | set(t_part) | set(u_part)))
    return _pair(rng, lambda j: Project(cols, j))


@_gen("R14")
def gen_r14(rng):
    fn = rng.choice((ScalarFn.of("neg"), ScalarFn.of("abs"),
                     ScalarFn.of("affine", a=2, b=-1)))
    if rng.random() < 0.5:
        cols = tuple(sorted(rng.sample(["k", "w", "s", "a"],
                                       rng.randint(1, 3))))
        # dead: derive output not kept
        return _single(rng, lambda t: Project(cols, Derive("y", fn, ("x",), t)))
    extra = rng.sample(["k", "w", "s"], rng.randint(0, 2))
    cols = tuple(sorted({"y", "x"} | set(extra)))
    return _single(rng, lambda t: Project(cols, Derive("y", fn, ("x",), t)))


############################################################
# operators vs join
############################################################

@_gen("R4.1")
def gen_r4_1(rng):
    shape = rng.random()
    if shape < 0.4:
        targets = (("a", "ea"), ("b", "eb"))
    elif shape < 0.7:
        targets = (("c", "ec"),)
    else:
        targets = (("d", "ed"),)
    return _pair(rng, lambda j: ArrayJoin(targets, j))


@_gen("R4.2")
def gen_r4_2(rng):
    length = rng.choice((0, 1, 2, 2, 3))
    t_rows = [{"k": rng.randrange(4), "x": scalar_value(rng, INT),
               "a": array_value(rng, INT, length),
               "b": array_value(rng, INT, length)}
              for _ in range(rng.randint(0, 7))]
    u_rows = [{"k": rng.randrange(4), "z": scalar_value(rng, INT),
               "d": array_value(rng, INT, length)}
              for _ in range(rng.randint(0, 7))]
    ts = Schema.of(scalars=["k", "x"], arrays=["a", "b"])
    us = Schema.of(scalars=["k", "z"], arrays=["d"])
    targets = ((("a", "ea"), ("d", "ed")) if rng.random() < 0.6
               else (("a", "ea"), ("b", "eb"), ("d", "ed")))
    term = ArrayJoin(targets, Join(RelVar("t"), RelVar("u")))
    return Instance(term,
                    {"t": Relation.build(ts, t_rows),
                     "u": Relation.build(us, u_rows)},
                    {"t": ts, "u": us},
                    correspondences=[("a", "b", "d")])


@_gen("R6")
def gen_r6(rng):
    if rng.random() < 0.6:
        pred = random_pred(rng, ["k", "x", "w", "s"], T_TYPES,
                           array_cols=["a", "c"])
    else:
        pred = random_pred(rng, ["k", "z"], U_TYPES, array_cols=["d"])
    return _pair(rng, lambda j: Filter(pred, j))


@_gen("R7")
def gen_r7(rng):
    if rng.random() < 0.5:
        pred = _t_scalar_pred(rng)
        return _pair(rng, lambda j: Join(Filter(pred, j.left), j.right))
    pred = random_pred(rng, ["k", "z"], U_TYPES)
    return _pair(rng, lambda j: Join(j.left, Filter(pred, j.right)))


@_gen("R8")
def gen_r8(rng):
    if rng.random() < 0.6:
        fn, args = rng.choice((
            (ScalarFn.of("neg"), ("x",)),
            (ScalarFn.of("add"), ("x", "w")),
            (ScalarFn.of("strlen"), ("s",)),
        ))
    else:
        fn, args = ScalarFn.of("abs"), ("z",)
    return _pair(rng, lambda j: Derive("y", fn, args, j))


@_gen("R10.1")
def gen_r10_1(rng):
    shape = rng.random()
    if shape < 0.35:
        targets = (("a", "fa"), ("b", "fb"))
    elif shape < 0.6:
        targets = (("c", "fc"),)
    else:
        targets = (("d", "fd"),)
    aliases = [a for _, a in targets]
    types = {a: (U_TYPES.get(s) or T_TYPES[s]) for s, a in targets}
    pred = random_pred(rng, aliases, types, depth=1)
    return _pair(rng, lambda j: ArrayFilter(targets, pred, j))


@_gen("R10.2")
def gen_r10_2(rng):
    if rng.random() < 0.6:
        targets = ((("a", "fa"),) if rng.random() < 0.6
                   else (("a", "fa"), ("b", "fb")))
        types = {a: T_TYPES[s] for s, a in targets}
        pred = random_pred(rng, [a for _, a in targets], types, depth=1)
        return _pair(rng, lambda j: Join(
            ArrayFilter(targets, pred, j.left), j.right))
    pred = random_pred(rng, ["fd"], {"fd": INT}, depth=1)
    return _pair(rng, lambda j: Join(
        j.left, ArrayFilter((("d", "fd"),), pred, j.right)))


@_gen("R10.3")
def gen_r10_3(rng):
    pa = random_pred(rng, ["fa"], {"fa": INT}, depth=1)
    pd = random_pred(rng, ["fd"], {"fd": INT}, depth=1)
    return _pair(rng, lambda j: ArrayFilter(
        (("a", "fa"),), pa,
        ArrayFilter((("d", "fd"),), pd, j)))


############################################################
# derive vs array operators
############################################################

def _int_fn(rng):
    return rng.choice((
        ScalarFn.of("neg"), ScalarFn.of("abs"),
        ScalarFn.of("affine", a=rng.choice((-2, -1, 1, 2)),
                    b=rng.randrange(-2, 3)),
    ))


@_gen("R5.1")
def gen_r5_1(rng):
    targets = _mu_targets(rng)
    if rng.random() < 0.7:
        fn, args = _int_fn(rng), ("x",)
    else:
        fn, args = ScalarFn.of("strlen"), ("s",)
    return _single(rng, lambda t: Derive("y", fn, args,
                                         ArrayJoin(targets, t)))


@_gen("R5.2")
def gen_r5_2(rng):
    targets = (("a", "ea"),) if rng.random() < 0.6 \
        else (("a", "ea"), ("b", "eb"))
    if rng.random() < 0.4:
        fn, args = ScalarFn.of("add"), ("ea", "x")
    else:
        fn, args = _int_fn(rng), ("ea",)
    return _single(rng, lambda t: Derive("y", fn, args,
                                         ArrayJoin(targets, t)))


@_gen("R11.1")
def gen_r11_1(rng):
    pred = random_pred(rng, ["fc"], {"fc": STR}, depth=1)
    if rng.random() < 0.5:
        return _single(rng, lambda t: ArrayFilter(
            (("c", "fc"),), pred,
            Derive("y", _int_fn(rng), ("a",), t, is_map=True)))
    return _single(rng, lambda t: Derive(
        "y", _int_fn(rng), ("a",),
        ArrayFilter((("c", "fc"),), pred, t), is_map=True))


@_gen("R11.2")
def gen_r11_2(rng):
    fn = rng.choice((ScalarFn.of("identity"), ScalarFn.of("neg"),
                     ScalarFn.of("affine", a=rng.choice((-2, -1, 1, 2, 3)),
                                 b=rng.randrange(-3, 4))))
    alias = "ym" if rng.random() < 0.4 else "na"
    pred = _invertible_pred(rng, alias)
    return _single(rng, lambda t: ArrayFilter(
        (("ym", alias),), pred,
        Derive("ym", fn, ("a",), t, is_map=True)))


@_gen("R12")
def gen_r12(rng):
    if rng.random() < 0.5:
        upper, lower = (("c", "ec"),), (("a", "ea"), ("b", "eb"))
    else:
        upper, lower = (("a", "ea"),), (("c", "ec"),)
    return _single(rng, lambda t: ArrayJoin(upper, ArrayJoin(lower, t)))


@_gen("R13.1")
def gen_r13_1(rng):
    pred = _t_scalar_pred(rng)
    return _single(rng, lambda t: Filter(pred,
                                         Derive("y", _int_fn(rng), ("x",), t)))


@_gen("R13.2")
def gen_r13_2(rng):
    fn = rng.choice((ScalarFn.of("identity"), ScalarFn.of("neg"),
                     ScalarFn.of("affine", a=rng.choice((-2, -1, 1, 2, 3)),
                                 b=rng.randrange(-3, 4))))
    out = "x" if rng.random() < 0.3 else "y"   # sometimes overwrite the input
    pred = _invertible_pred(rng, out)
    return _single(rng, lambda t: Filter(pred, Derive(out, fn, ("x",), t)))


############################################################
# aggregates
############################################################

_SCALAR_AGG = {INT: ("min", "max", "sum", "count", "avg"),
               STR: ("min", "max", "count")}


def _agg_specs(rng, cols, types, n=None, fns=None):
    n = n or rng.randint(1, 2)
    specs = []
    for i in range(n):
        arg = rng.choice(cols)
        pool = fns or _SCALAR_AGG[types[arg]]
        if fns and types[arg] == STR:
            pool = tuple(f for f in fns if f in ("min", "max", "count"))
            if not pool:
                continue
        specs.append(AggSpec(rng.choice(pool), arg, "g%d" % i))
    return tuple(specs)


@_gen("R15")
def gen_r15(rng):
    keys = ("k",) if rng.random() < 0.6 else ("k", "x")
    pred = random_pred(rng, list(keys), T_TYPES)
    specs = _agg_specs(rng, ["w", "s"], T_TYPES)
    return _single(rng, lambda t: Filter(pred, Aggregate(keys, specs, t)))


@_gen("R16")
def gen_r16(rng):
    keys = rng.choice(((), ("z",), ("x",), ("x", "z")))
    n = rng.randint(1, 2)
    specs = tuple(AggSpec("distinct", rng.choice(("x", "w", "s")), "g%d" % i)
                  for i in range(n))
    return _pair(rng, lambda j: Aggregate(keys, specs, j))


@_gen("R17.1")
def gen_r17_1(rng):
    targets = (("a", "ea"),) if rng.random() < 0.5 \
        else (("a", "ea"), ("b", "eb"))
    aliases = [a for _, a in targets]
    keys = rng.choice(((), ("k",), ("k", "x")))
    specs = _agg_specs(rng, aliases, {a: INT for a in aliases})
    return _single(rng, lambda t: Aggregate(keys, specs, ArrayJoin(targets, t)))


@_gen("R17.2")
def gen_r17_2(rng):
    targets = (("a", "ea"),)
    keys = ("ea",) if rng.random() < 0.5 else ("k", "ea")
    specs = _agg_specs(rng, ["x", "w", "s"], T_TYPES)
    return _single(rng, lambda t: Aggregate(keys, specs, ArrayJoin(targets, t)))


@_gen("R17.3")
def gen_r17_3(rng):
    targets = (("a", "ea"), ("b", "eb"))
    keys = ("ea",) if rng.random() < 0.5 else ("k", "ea")
    specs = _agg_specs(rng, ["eb"], {"eb": INT})
    return _single(rng, lambda t: Aggregate(keys, specs, ArrayJoin(targets, t)))


@_gen("R18")
def gen_r18(rng):
    keys = rng.choice(((), ("x",), ("x", "k")))
    specs = _agg_specs(rng, ["w", "s"], T_TYPES)
    return _pair(rng, lambda j: Aggregate(keys, specs, j))


@_gen("R19")
def gen_r19(rng):
    keys = rng.choice(((), ("x",), ("x", "k")))
    specs = _agg_specs(rng, ["w"], T_TYPES, fns=("sum", "min", "max"))
    return _pair(rng, lambda j: Aggregate(keys, specs, j))


@_gen("R20")
def gen_r20(rng):
    targets = _mu_targets(rng)
    keys = rng.choice(((), ("k",), ("k", "x")))
    specs = _agg_specs(rng, ["w", "s"], T_TYPES)
    return _single(rng, lambda t: Aggregate(keys, specs, ArrayJoin(targets, t)))


@_gen("R21")
def gen_r21(rng):
    keys = ("x", "z")
    specs = _agg_specs(rng, ["w", "s"], T_TYPES)
    return _pair(rng, lambda j: Aggregate(keys, specs, j))
