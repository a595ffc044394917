"""Expected answers computed outside the system under test.

The four closure classes are answered from the XML *text* with the standard
library's ``xml.etree`` and a plain breadth-first loop, sharing no code with
``repro``: a bug in the parser, the index, a kernel or a fixpoint driver
cannot hide by being wrong on both sides.  Every class lists its possible
start nodes (``starts``), answers one (``answer``) and tells the *work* its
closure takes (``work``: nodes in it), from which the op generator draws
start nodes of equal work.

Inflationary fixed point of ``with $x seeded by S recurse e($x)``
(Definition 2.1): ``res := e(S)``; repeat ``res := res ∪ e(res)`` until
nothing is added.  The seed is in the answer only if ``e`` derives it.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET
from collections.abc import Callable, Hashable, Iterable


def closure(start: Hashable, successors: Callable[[Hashable], Iterable[Hashable]]) -> set:
    """Everything reachable from *start* in one or more ``successors`` steps."""
    reached: set = set()
    frontier = [start]
    while frontier:
        following = []
        for node in frontier:
            for successor in successors(node):
                if successor not in reached:
                    reached.add(successor)
                    following.append(successor)
        frontier = following
    return reached


class Curriculum:
    """``$x/id(./prerequisites/pre_code)`` from one course; answers are the
    ``code`` values of the reached courses in document order."""

    def __init__(self, xml_text: str):
        root = ET.fromstring(xml_text)
        self.starts = [course.get("code") for course in root.findall("course")]
        position = {code: index for index, code in enumerate(self.starts)}
        self._position = position
        self._prerequisites = {
            course.get("code"): [pre.text for pre in course.findall("prerequisites/pre_code")
                                 if pre.text in position]
            for course in root.findall("course")
        }

    def answer(self, code: str) -> list[str]:
        reached = closure(code, self._prerequisites.__getitem__)
        return sorted(reached, key=self._position.__getitem__)

    def work(self, code: str) -> int:
        return len(closure(code, self._prerequisites.__getitem__))


class Bidder:
    """The bidder network (Figure 10) from one person: sellers to the bidders
    of their auctions; answers are ``@id`` values in document order."""

    def __init__(self, xml_text: str):
        root = ET.fromstring(xml_text)
        self.starts = [person.get("id") for person in root.findall("people/person")]
        self._position = {pid: index for index, pid in enumerate(self.starts)}
        self._bidders: dict[str, set[str]] = {pid: set() for pid in self.starts}
        for auction in root.iter("open_auction"):
            refs = {ref.get("person") for ref in auction.findall("bidder/personref")}
            for seller in auction.findall("seller"):
                if seller.get("person") in self._bidders:
                    self._bidders[seller.get("person")] |= refs & self._position.keys()

    def answer(self, person: str) -> list[str]:
        reached = closure(person, self._bidders.__getitem__)
        return sorted(reached, key=self._position.__getitem__)

    def work(self, person: str) -> int:
        return len(closure(person, self._bidders.__getitem__))


class Hospital:
    """``$x/parent`` from one patient, then ``[@diagnosed="yes"]`` counted."""

    def __init__(self, xml_text: str):
        root = ET.fromstring(xml_text)
        self._patients = {patient.get("id"): patient for patient in root.findall("patient")}
        self.starts = list(self._patients)

    def _ancestors(self, patient: str) -> set:
        return closure(self._patients[patient], lambda node: node.findall("parent"))

    def answer(self, patient: str) -> list[str]:
        return [str(sum(1 for node in self._ancestors(patient)
                        if node.get("diagnosed") == "yes"))]

    def work(self, patient: str) -> int:
        return len(self._ancestors(patient))


class Dialogs:
    """The alternating-speaker run after ``ACT[a]/SCENE[b]/SPEECH[c]``: each
    round steps to the next sibling SPEECH unless it repeats the speaker of
    the SPEECH before it; the answer is how many speeches were reached."""

    def __init__(self, xml_text: str):
        root = ET.fromstring(xml_text)
        self._scenes: dict[tuple[int, int], list[set[str]]] = {}
        for a, act in enumerate(root.findall("ACT"), start=1):
            for b, scene in enumerate(act.findall("SCENE"), start=1):
                self._scenes[a, b] = [{speaker.text for speaker in speech.findall("SPEAKER")}
                                      for speech in scene.findall("SPEECH")]
        self.starts = [(a, b, c) for (a, b), speeches in self._scenes.items()
                          for c in range(1, len(speeches) + 1)]

    def work(self, position: tuple[int, int, int]) -> int:
        a, b, c = position
        speakers = self._scenes[a, b]
        index = c - 1
        reached = 0
        # ``SPEAKER = preceding-sibling::SPEECH[1]/SPEAKER`` is a general
        # comparison: true when the two speaker sets share a value.
        while index + 1 < len(speakers) and not speakers[index + 1] & speakers[index]:
            index += 1
            reached += 1
        return reached

    def answer(self, position: tuple[int, int, int]) -> list[str]:
        return [str(self.work(position))]


def digest(items: Iterable[str]) -> str:
    """Order-sensitive digest of a canonical item list."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(item.encode("utf-8"))
        hasher.update(b"\x1f")
    return hasher.hexdigest()[:16]
