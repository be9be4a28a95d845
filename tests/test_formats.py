"""Round trips through the file formats, and parsers fed arbitrary text.

What the library writes it reads back unchanged: Boolean contexts, the R*
contexts of their normalized cores, and fuzzy contexts on every shipped
frame and arrangement.  A parser given any text either returns a context
or raises ``ContextFormatError``.
"""

import json

from hypothesis import given, settings, strategies as st

from galois_factor import (
    BooleanContext,
    ContextFormatError,
    FrameKind,
    FuzzyContext,
    normalize,
    rstar,
    triple_from_descriptor,
)
from galois_factor.io import (
    SCHEMA,
    document_from_json,
    emit_json,
    format_cxt,
    parse_cxt,
    parse_fuzzy_csv,
)

# the names a .cxt file can carry: one non-empty line, no surrounding blanks
names = st.text(min_size=1, max_size=6).filter(
    lambda n: n.strip() == n and n.splitlines() == [n]
)


@st.composite
def boolean_contexts(draw):
    """Contexts up to 70 objects wide, rows often empty or full."""
    n_attrs = draw(st.integers(1, 5))
    n_objs = draw(st.integers(1, 70))
    full = (1 << n_objs) - 1
    rows = draw(
        st.lists(
            st.one_of(st.just(0), st.just(full), st.integers(0, full)),
            min_size=n_attrs,
            max_size=n_attrs,
        )
    )
    attributes = draw(st.lists(names, min_size=n_attrs, max_size=n_attrs, unique=True))
    objects = draw(st.lists(names, min_size=n_objs, max_size=n_objs, unique=True))
    return BooleanContext(attributes, objects, rows)


@settings(deadline=None)
@given(boolean_contexts())
def test_cxt_round_trip(ctx):
    assert parse_cxt(format_cxt(ctx)) == ctx


@settings(deadline=None)
@given(boolean_contexts())
def test_json_round_trip(ctx):
    assert document_from_json(emit_json(ctx)) == ctx


@settings(deadline=None)
@given(boolean_contexts())
def test_rstar_json_round_trip(ctx):
    core = normalize(ctx).core
    if core.attributes:
        mask = rstar(core)
        assert document_from_json(emit_json(mask)) == mask


# the domain of a triple that holds the relation chain P, per arrangement
P_DOMAIN = {
    FrameKind.CONCEPT_FORMING: 2,
    FrameKind.PROPERTY_ORIENTED: 0,
    FrameKind.OBJECT_ORIENTED: 1,
}


@st.composite
def fuzzy_contexts(draw):
    """Contexts on godel, lukasiewicz and dprod frames with m <= 4, in any
    arrangement, with one triple or two that ``sigma`` picks between."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))
    if draw(st.booleans()):
        sizes = [sizes[0]] * 3
    m1, m2, m3 = sizes
    descriptors = [f"dprod:{m1},{m2},{m3}"]
    if m1 == m2 == m3:  # one chain: the three frames share their domains
        descriptors += [f"godel:{m1}", f"lukasiewicz:{m1}"]
    chosen = draw(st.lists(st.sampled_from(descriptors), min_size=1, max_size=2))
    triples = [triple_from_descriptor(d) for d in chosen]
    kind = draw(st.sampled_from(list(FrameKind)))
    p = triples[0].domains[P_DOMAIN[kind]]
    n_attrs, n_objs = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    attributes = draw(st.lists(names, min_size=n_attrs, max_size=n_attrs, unique=True))
    objects = draw(st.lists(names, min_size=n_objs, max_size=n_objs, unique=True))

    def grid(top):
        row = st.lists(st.integers(0, top), min_size=n_objs, max_size=n_objs)
        return st.lists(row, min_size=n_attrs, max_size=n_attrs)

    sigma = draw(st.none() | grid(len(triples) - 1))
    return FuzzyContext(attributes, objects, triples, draw(grid(p.m)), sigma, kind)


@settings(deadline=None)
@given(fuzzy_contexts())
def test_fuzzy_json_round_trip(ctx):
    assert document_from_json(emit_json(ctx)) == ctx


def only_format_errors(parse, text):
    try:
        parse(text)
    except ContextFormatError:
        pass


# arbitrary text, and arbitrary text behind a valid start so that the
# parsers get past their first checks
cxt_texts = st.one_of(st.text(), st.text().map(lambda t: "B\n\n2\n2\n\n" + t))
csv_texts = st.one_of(st.text(), st.text().map(lambda t: "R,b1,b2\n" + t))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
json_documents = st.fixed_dictionaries(
    {"schema": st.just(SCHEMA), "kind": st.sampled_from(["boolean", "fuzzy", "other"])},
    optional={
        key: json_values
        for key in ("attributes", "objects", "incidence", "frames", "relation", "sigma")
    },
)
json_texts = st.one_of(st.text(), json_values.map(json.dumps), json_documents.map(json.dumps))


@given(cxt_texts)
def test_parse_cxt_raises_only_context_format_error(text):
    only_format_errors(parse_cxt, text)


@given(csv_texts)
def test_parse_fuzzy_csv_raises_only_context_format_error(text):
    only_format_errors(lambda t: parse_fuzzy_csv(t, "godel:4"), text)


@given(json_texts)
def test_document_from_json_raises_only_context_format_error(text):
    only_format_errors(document_from_json, text)
