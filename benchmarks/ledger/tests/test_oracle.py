"""The oracle against hand-written documents of eight nodes."""

from ledger import oracle

CURRICULUM = """<curriculum>
<course code="a"><prerequisites><pre_code>b</pre_code><pre_code>c</pre_code></prerequisites></course>
<course code="b"><prerequisites><pre_code>d</pre_code></prerequisites></course>
<course code="c"><prerequisites><pre_code>d</pre_code></prerequisites></course>
<course code="d"><prerequisites/></course>
<course code="e"><prerequisites><pre_code>f</pre_code></prerequisites></course>
<course code="f"><prerequisites><pre_code>e</pre_code><pre_code>zz</pre_code></prerequisites></course>
<course code="g"><prerequisites><pre_code>g</pre_code></prerequisites></course>
<course code="h"><prerequisites/></course>
</curriculum>"""


def test_curriculum_closure_in_document_order():
    curriculum = oracle.Curriculum(CURRICULUM)
    assert curriculum.answer("a") == ["b", "c", "d"]
    assert curriculum.answer("d") == []
    assert curriculum.answer("e") == ["e", "f"]      # on a cycle: the seed is derived
    assert curriculum.answer("g") == ["g"]
    assert curriculum.starts == list("abcdefgh")


AUCTION = """<site><people>
<person id="p0"/><person id="p1"/><person id="p2"/><person id="p3"/>
</people><open_auctions>
<open_auction id="a0"><seller person="p0"/><bidder><personref person="p2"/></bidder>
  <bidder><personref person="p1"/></bidder></open_auction>
<open_auction id="a1"><seller person="p2"/><bidder><personref person="p0"/></bidder></open_auction>
<open_auction id="a2"><seller person="p3"/><bidder><personref person="p3"/></bidder></open_auction>
</open_auctions></site>"""


def test_bidder_network():
    bidder = oracle.Bidder(AUCTION)
    assert bidder.answer("p0") == ["p0", "p1", "p2"]
    assert bidder.answer("p1") == []
    assert bidder.answer("p3") == ["p3"]


HOSPITAL = """<hospital>
<patient id="x"><name>X</name>
  <parent id="x1" diagnosed="yes"><name>A</name>
    <parent id="x11"><name>A</name></parent>
    <parent id="x12" diagnosed="yes"><name>A</name></parent></parent>
  <parent id="x2"><name>A</name><parent id="x21" diagnosed="no"><name>A</name></parent></parent>
</patient>
<patient id="y" diagnosed="yes"><name>Y</name></patient>
</hospital>"""


def test_hospital_counts_diagnosed_ancestors_only():
    hospital = oracle.Hospital(HOSPITAL)
    assert hospital.answer("x") == ["2"]
    assert hospital.work("x") == 5
    assert hospital.answer("y") == ["0"]             # the patient is the seed, not an ancestor


def speech(*speakers):
    return "<SPEECH>" + "".join(f"<SPEAKER>{name}</SPEAKER>" for name in speakers) + "<LINE>.</LINE></SPEECH>"


PLAY = ("<PLAY><TITLE>t</TITLE><ACT><TITLE>a</TITLE><SCENE><TITLE>s</TITLE>"
        + speech("A") + speech("B") + speech("A") + speech("A") + speech("B", "C") + speech("C")
        + "</SCENE><SCENE><TITLE>s</TITLE>" + speech("A") + speech("B") + "</SCENE></ACT></PLAY>")


def test_dialogs_alternating_run():
    dialogs = oracle.Dialogs(PLAY)
    assert dialogs.answer((1, 1, 1)) == ["2"]        # A B A | A repeats
    assert dialogs.answer((1, 1, 3)) == ["0"]
    assert dialogs.answer((1, 1, 4)) == ["1"]        # A, then {B, C}; C shares a speaker
    assert dialogs.answer((1, 2, 1)) == ["1"]
    assert len(dialogs.starts) == 8


def test_digest_is_order_sensitive():
    assert oracle.digest(["a", "b"]) != oracle.digest(["b", "a"])
    assert oracle.digest(["ab"]) != oracle.digest(["a", "b"])
