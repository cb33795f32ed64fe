"""Seeded random builders for relations, predicates, and terms.

Shared across the test suite.  Everything takes an explicit random.Random so
failures reproduce from a printed seed.  Generated relations carry correlation
groups: arrays in the same group have equal lengths row by row, which is what
multi-target arrayJoin/arrayFilter and binary map derives require.
"""

import random

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
    children,
    footprint,
    output_schema,
    replace_at,
    walk,
)
from a3d.functions import ScalarFn
from a3d.predicates import And, Apply, Cmp, Col, Lit, Not, Or
from a3d.stats import build_table_stats

INT, STR = "int", "str"


class TestRel:
    """A generated relation plus the type/grouping facts tests need."""

    def __init__(self, name, relation, types, groups):
        self.name = name
        self.relation = relation
        self.types = types      # col -> INT | STR
        self.groups = groups    # list of tuples of array cols with shared length

    @property
    def schema(self):
        return self.relation.schema


def scalar_value(rng, etype, null_p=0.15):
    if rng.random() < null_p:
        return None
    if etype == INT:
        return rng.randrange(-3, 9)
    return "s%d" % rng.randrange(5)


def array_value(rng, etype, length, null_p=0.15):
    return tuple(scalar_value(rng, etype, null_p) for _ in range(length))


def build_relation(rng, name, scalar_specs, array_group_specs, n_rows,
                   key_range=4):
    """scalar_specs: [(col, etype)]; array_group_specs: [[(col, etype), ...]].

    A scalar column named exactly "k" is generated as a never-null small int
    so natural joins on it hit.
    """
    scalars = [c for c, _ in scalar_specs]
    arrays = [c for grp in array_group_specs for c, _ in grp]
    schema = Schema.of(scalars=scalars, arrays=arrays)
    types = dict(scalar_specs)
    for grp in array_group_specs:
        types.update(grp)
    rows = []
    for _ in range(n_rows):
        row = {}
        for c, et in scalar_specs:
            if c == "k":
                row[c] = rng.randrange(key_range)
            else:
                row[c] = scalar_value(rng, et)
        for grp in array_group_specs:
            length = rng.choice((0, 1, 1, 2, 2, 3, 4))
            for c, et in grp:
                row[c] = array_value(rng, et, length)
        rows.append(row)
    rel = Relation.build(schema, rows)
    groups = [tuple(c for c, _ in grp) for grp in array_group_specs]
    return TestRel(name, rel, types, groups)


def default_relation(rng, name, with_key=False, min_rows=0, max_rows=8):
    """Random small relation: 1-3 scalars, 0-3 arrays (sometimes grouped)."""
    scalar_specs = [("%s_s%d" % (name, i), rng.choice((INT, INT, STR)))
                    for i in range(rng.randint(1, 3))]
    if with_key:
        scalar_specs.append(("k", INT))
    arr_cols = ["%s_a%d" % (name, i) for i in range(rng.randint(0, 3))]
    if len(arr_cols) >= 2 and rng.random() < 0.6:
        group_specs = [[(c, rng.choice((INT, INT, STR))) for c in arr_cols[:2]]]
        group_specs += [[(c, rng.choice((INT, STR)))] for c in arr_cols[2:]]
    else:
        group_specs = [[(c, rng.choice((INT, INT, STR)))] for c in arr_cols]
    n_rows = rng.randint(min_rows, max_rows)
    return build_relation(rng, name, scalar_specs, group_specs, n_rows)


############################################################
# predicates
############################################################

def _literal_for(rng, etype):
    if etype == INT:
        return rng.randrange(-2, 8)
    return "s%d" % rng.randrange(5)


def random_comparison(rng, scalar_cols, types):
    col = rng.choice(scalar_cols)
    et = types[col]
    op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
    lhs = Col(col)
    if et == INT and rng.random() < 0.25:
        fn = ScalarFn.of("affine", a=rng.choice((-2, -1, 1, 2, 3)),
                         b=rng.randrange(-3, 4))
        lhs = Apply(fn, (lhs,))
    return Cmp(op, lhs, Lit(_literal_for(rng, et)))


def random_pred(rng, scalar_cols, types, array_cols=(), depth=2):
    """Random predicate over the given scalar columns (plus a != [] probes)."""
    if array_cols and rng.random() < 0.15:
        return Cmp(rng.choice(("=", "!=")), Col(rng.choice(list(array_cols))),
                   Lit(()))
    if depth > 0 and rng.random() < 0.4:
        n = rng.randint(2, 3)
        parts = tuple(random_pred(rng, scalar_cols, types, array_cols, depth - 1)
                      for _ in range(n))
        shape = rng.random()
        if shape < 0.45:
            return And(parts)
        if shape < 0.9:
            return Or(parts)
        return Not(parts[0])
    return random_comparison(rng, scalar_cols, types)


############################################################
# terms
############################################################

class _Env:
    """Tracks kinds/types/groups as a random term is grown."""

    def __init__(self, rels):
        self.kinds = {}
        self.types = {}
        self.groups = []
        for tr in rels:
            for c in tr.schema.scalars:
                self.kinds[c] = "scalar"
            for c in tr.schema.arrays:
                self.kinds[c] = "array"
            self.types.update(tr.types)
            self.groups.extend([list(g) for g in tr.groups])
        self.fresh_n = 0

    def fresh(self):
        self.fresh_n += 1
        return "v%d" % self.fresh_n

    def scalars(self):
        return sorted(c for c, k in self.kinds.items() if k == "scalar")

    def arrays(self):
        return sorted(c for c, k in self.kinds.items() if k == "array")

    def group_of(self, col):
        for g in self.groups:
            if col in g:
                return g
        return None

    def consume_arrays(self, sources):
        for c in sources:
            self.kinds.pop(c, None)
            g = self.group_of(c)
            if g is not None:
                g.remove(c)


def random_term(rng, rels, n_ops=4):
    """Grow a random valid term over one or two base relations."""
    if len(rels) == 2:
        term = Join(RelVar(rels[0].name), RelVar(rels[1].name))
    else:
        term = RelVar(rels[0].name)
    env = _Env(rels)

    for _ in range(n_ops):
        choices = ["filter", "derive"]
        if env.arrays():
            choices += ["arrayjoin", "arrayfilter", "mapderive"]
        if rng.random() < 0.25:
            choices.append("aggregate")
        kind = rng.choice(choices)

        if kind == "filter" and env.scalars():
            pred = random_pred(rng, env.scalars(), env.types,
                               array_cols=env.arrays())
            term = Filter(pred, term)

        elif kind == "derive" and env.scalars():
            ints = [c for c in env.scalars() if env.types[c] == INT]
            out = env.fresh()
            if ints and rng.random() < 0.8:
                c = rng.choice(ints)
                fn = rng.choice((
                    ScalarFn.of("affine", a=rng.choice((-2, -1, 1, 2)),
                                b=rng.randrange(-2, 3)),
                    ScalarFn.of("neg"), ScalarFn.of("abs"),
                ))
                term = Derive(out, fn, (c,), term)
            else:
                strs = [c for c in env.scalars() if env.types[c] == STR]
                if not strs:
                    continue
                term = Derive(out, ScalarFn.of("strlen"),
                              (rng.choice(strs),), term)
            env.kinds[out] = "scalar"
            env.types[out] = INT

        elif kind == "arrayjoin":
            src = rng.choice(env.arrays())
            grp = env.group_of(src)
            targets = [src]
            if grp and len(grp) > 1 and rng.random() < 0.5:
                targets = list(grp)[:2]
            pairs = []
            for s in targets:
                a = env.fresh()
                pairs.append((s, a))
                env.kinds[a] = "scalar"
                env.types[a] = env.types[s]
            env.consume_arrays(targets)
            term = ArrayJoin(tuple(pairs), term)

        elif kind == "arrayfilter":
            src = rng.choice(env.arrays())
            grp = env.group_of(src)
            targets = [src]
            if grp and len(grp) > 1 and rng.random() < 0.5:
                targets = list(grp)[:2]
            pairs = []
            alias_types = {}
            for s in targets:
                a = env.fresh()
                pairs.append((s, a))
                alias_types[a] = env.types[s]
            pred = random_pred(rng, sorted(alias_types), alias_types, depth=1)
            new_group = []
            for s, a in pairs:
                env.kinds[a] = "array"
                env.types[a] = env.types[s]
                new_group.append(a)
            env.consume_arrays(targets)
            env.groups.append(new_group)   # filtered together: still equal length
            term = ArrayFilter(tuple(pairs), pred, term)

        elif kind == "mapderive":
            ints = [c for c in env.arrays() if env.types[c] == INT]
            if not ints:
                continue
            src = rng.choice(ints)
            out = env.fresh()
            if rng.random() < 0.3:
                sc = [c for c in env.scalars() if env.types[c] == INT]
                if sc:
                    term = Derive(out, ScalarFn.of("add"),
                                  (src, rng.choice(sc)), term, is_map=True)
                else:
                    term = Derive(out, ScalarFn.of("neg"), (src,), term,
                                  is_map=True)
            else:
                fn = rng.choice((
                    ScalarFn.of("affine", a=rng.choice((-1, 1, 2)),
                                b=rng.randrange(-2, 3)),
                    ScalarFn.of("neg"), ScalarFn.of("abs"),
                ))
                term = Derive(out, fn, (src,), term, is_map=True)
            env.kinds[out] = "array"
            env.types[out] = INT
            grp = env.group_of(src)
            if grp is not None:
                grp.append(out)
            else:
                env.groups.append([src, out])

        elif kind == "aggregate":
            n_keys = rng.randint(0, min(2, len(env.scalars())))
            keys = tuple(rng.sample(env.scalars(), n_keys))
            specs = []
            n_aggs = rng.randint(1, 2)
            candidates = [c for c in env.scalars() if c not in keys]
            arr_candidates = env.arrays()
            for _ in range(n_aggs):
                alias = env.fresh()
                if arr_candidates and rng.random() < 0.4:
                    src = rng.choice(arr_candidates)
                    fn = rng.choice(("sumForEach", "countForEach", "count",
                                     "minForEach", "maxForEach"))
                    if env.types[src] == STR:
                        fn = rng.choice(("count", "distinct", "minForEach",
                                         "maxForEach", "countForEach"))
                    specs.append(AggSpec(fn, src, alias))
                elif candidates:
                    src = rng.choice(candidates)
                    fn = rng.choice(("min", "max", "count", "sum", "avg",
                                     "distinct"))
                    if env.types[src] == STR and fn in ("sum", "avg"):
                        fn = "min"
                    specs.append(AggSpec(fn, src, alias))
            if not specs:
                continue
            term = Aggregate(keys, tuple(specs), term)
            # reset environment to the aggregate's output
            new_kinds, new_types = {}, {}
            for c in keys:
                new_kinds[c] = env.kinds[c]
                new_types[c] = env.types[c]
            for spec in specs:
                if spec.fn == "distinct" or spec.fn.endswith("ForEach"):
                    new_kinds[spec.alias] = "array"
                else:
                    new_kinds[spec.alias] = "scalar"
                if spec.fn in ("count", "sum", "avg") or \
                        spec.fn in ("countForEach", "sumForEach"):
                    new_types[spec.alias] = INT
                else:
                    new_types[spec.alias] = env.types[spec.arg]
            env.kinds, env.types = new_kinds, new_types
            env.groups = []

    if rng.random() < 0.3 and env.kinds:
        cols = sorted(env.kinds)
        keep = rng.sample(cols, rng.randint(1, len(cols)))
        term = Project(tuple(keep), term)
    return term


def with_inner_project(rng, term, schemas):
    """`term` with a Project wrapped around one random node below its root.

    The Project keeps the term's output columns, every join's shared
    columns and every column an operator above the node reads, plus a
    random half of the rest; so the term stays valid, with the same output
    schema and join keys.  A bare relation is returned unchanged.
    """
    paths = [p for p, _ in walk(term) if p]
    if not paths:
        return term
    path = rng.choice(paths)
    need = set(output_schema(term, schemas).columns)
    for p, sub in walk(term):
        if isinstance(sub, Join):
            need |= (output_schema(sub.left, schemas).columns
                     & output_schema(sub.right, schemas).columns)
        elif path[:len(p)] == p != path:   # a unary operator above the node
            need |= footprint(sub)[0]
    node = subterm_at(term, path)
    cols = sorted(output_schema(node, schemas).columns)
    keep = tuple(c for c in cols if c in need or rng.random() < 0.5)
    return replace_at(term, path, Project(keep or tuple(cols[:1]), node))


def subterm_at(term, path):
    """The node of `term` at `path`, a tuple of child indices."""
    node = term
    for i in path:
        node = children(node)[i]
    return node


def random_db(rng, join=False):
    """One or two relations (sharing key column "k" when join=True)."""
    if join:
        r0 = default_relation(rng, "r0", with_key=True)
        r1 = default_relation(rng, "r1", with_key=True)
        rels = [r0, r1]
    else:
        rels = [default_relation(rng, "r0")]
    return rels, {tr.name: tr.relation for tr in rels}


def random_query(seed: int) -> tuple:
    """(term, schemas, statistics) of one seeded random query."""
    rng = random.Random(seed)
    nrel = rng.choice((1, 1, 2))
    rels = [default_relation(rng, "r%d" % i, with_key=(nrel > 1), min_rows=1)
            for i in range(nrel)]
    term = random_term(rng, rels, n_ops=rng.randint(1, 5))
    schemas = {tr.name: tr.schema for tr in rels}
    stats = {tr.name: build_table_stats(tr.relation) for tr in rels} \
        if seed % 2 else None
    return term, schemas, stats


def inner_query(seed: int) -> tuple:
    """(term, schemas, statistics) of one random query with an inner
    projection."""
    rng = random.Random(seed)
    nrel = rng.choice((1, 2))
    rels = [default_relation(rng, "r%d" % i, with_key=(nrel > 1), min_rows=1)
            for i in range(nrel)]
    schemas = {tr.name: tr.schema for tr in rels}
    term = random_term(rng, rels, n_ops=rng.randint(1, 5))
    term = with_inner_project(rng, term, schemas)
    stats = {tr.name: build_table_stats(tr.relation) for tr in rels} \
        if seed % 2 else None
    return term, schemas, stats
