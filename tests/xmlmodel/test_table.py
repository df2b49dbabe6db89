"""ResultTable: the flat, immutable encoding of a result collection.

Three round trips must be lossless — trees, compact XML text, and the
JSON wire frame — for everything a result can hold: attributes,
``None`` vs ``""`` content, text beside children, markup characters,
non-ASCII, and the ``\\n``/``\\t`` the line-framed protocol must carry
inside one line.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.xmlmodel import Collection, ResultTable, XMLNode, element, serialize_collection

tags = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
# Unlike the parser round trip in test_properties.py, nothing here goes
# through the XML parser, so content keeps its whitespace, may be empty,
# and may hold control characters.
texts = st.text(
    alphabet=st.one_of(
        st.sampled_from('&<>"\'\n\t é語'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=20,
)


@st.composite
def xml_trees(draw, max_depth: int = 3) -> XMLNode:
    node = XMLNode(
        draw(tags),
        draw(st.one_of(st.none(), texts)),
        draw(st.dictionaries(tags, texts, max_size=2)) or None,
    )
    if max_depth > 0:
        for child in draw(st.lists(xml_trees(max_depth=max_depth - 1), max_size=3)):
            node.append_child(child)
    return node


collections = st.lists(xml_trees(), max_size=4).map(Collection.from_roots)


@settings(max_examples=150, deadline=None)
@given(collections)
def test_round_trips(collection):
    table = ResultTable.from_collection(collection)
    assert len(table) == len(collection)
    assert len(table.rows) == collection.total_nodes()

    rebuilt = table.to_collection()
    assert rebuilt.structurally_equal(collection)
    originals = {id(node) for tree in collection for node in tree.iter_nodes()}
    assert not any(id(node) in originals for tree in rebuilt for node in tree.iter_nodes())

    assert table.to_xml() == serialize_collection(collection, None)
    assert json.loads(table.to_xml_json()) == table.to_xml()

    line = json.dumps(table.to_wire())
    assert "\n" not in line  # one reply line, whatever the text holds
    assert ResultTable.from_wire(json.loads(line)).rows == table.rows


def test_none_and_empty_content_stay_distinct():
    collection = Collection.from_roots(
        [element("t"), element("t", ""), element("t", None, element("k")), element("t", "", element("k"))]
    )
    table = ResultTable.from_collection(collection)
    assert table.to_xml() == "<t/>\n<t></t>\n<t><k/></t>\n<t><k/></t>"
    assert [tree.root.content for tree in table.to_collection()] == [None, "", None, ""]
    over_the_wire = ResultTable.from_wire(json.loads(json.dumps(table.to_wire())))
    assert [tree.root.content for tree in over_the_wire.to_collection()] == [None, "", None, ""]


def test_empty_collection():
    table = ResultTable.from_collection(Collection())
    assert (len(table), table.rows, table.to_xml(), table.to_wire()) == (0, (), "", [])
    assert len(ResultTable.from_wire([]).to_collection()) == 0


def test_rows_are_immutable_and_trees_are_private():
    table = ResultTable.from_collection(
        Collection.from_roots([element("a", "x", element("b", "y"), id="1")])
    )
    with pytest.raises(TypeError):
        table.rows[0] = (0, "z", None, ())
    with pytest.raises(TypeError):
        table.rows[0][1] = "z"
    with pytest.raises(TypeError):
        table.rows[0][3][0] = ("id", "2")
    first = table.to_collection()
    first[0].root.tag = "vandalized"
    first[0].root.attributes["id"] = "2"
    first[0].root.children.clear()
    second = table.to_collection()
    assert second[0].root.sketch() == "a: x [id='1']\n  b: y"
    assert table.to_xml() == '<a id="1">x<b>y</b></a>'


@pytest.mark.parametrize(
    "frame",
    [
        None,
        {"rows": []},
        [0, "a", None],  # not a whole number of rows
        [1, "a", None, None],  # first row below level 0
        [0, "a", None, None, 2, "b", None, None],  # skips a level
        [True, "a", None, None],
        [0, 7, None, None],
        [0, "a", 7, None],
        [0, "a", None, ["id", "1"]],
        [0, "a", None, {"id": 1}],
    ],
)
def test_from_wire_rejects_malformed_frames(frame):
    with pytest.raises(ProtocolError):
        ResultTable.from_wire(frame)
