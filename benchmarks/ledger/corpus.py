"""The benchmark corpus: four scenario documents as XML text, plus notes.xml.

Serialized once per process by ``repro.datagen`` (the time is reported as
``datagen.build_s`` and is never part of ``setup_s``): set-up starts from
XML text in hand, the way a library caller or ``POST /documents`` receives
it.  The generators are seeded by their own configs, so the documents are
the same on every commit and under every ``--seed``; ``--seed`` varies the
operations, not the data.
"""

from __future__ import annotations

import random
import time

from repro.datagen.curriculum import CurriculumConfig, generate_curriculum_xml
from repro.datagen.hospital import HospitalConfig, generate_hospital_xml
from repro.datagen.plays import PlayConfig, generate_play_xml
from repro.datagen.xmark import XMarkConfig, generate_auction_site_xml

#: ``code`` is the curriculum's ID attribute (``fn:id`` resolves against it).
ID_ATTRIBUTES = ("id", "xml:id", "code")

#: Op class → the document it reads.
DOCUMENT_OF = {
    "curriculum": "curriculum.xml",
    "count": "curriculum.xml",
    "bidder": "auction.xml",
    "hospital": "hospital.xml",
    "dialogs": "play.xml",
}


def build(size: str) -> tuple[dict[str, str], float]:
    """The four documents (URI → XML text) and the seconds datagen took.

    ``full``: curriculum medium (800 courses, 83 KB), bidder network small
    (22 KB), hospital medium (1000 patients, 1.2 MB), dialogs default
    (144 KB).  ``service``: the same with a 100-patient hospital (120 KB) —
    every write makes each connection re-shred every document its SQL reads
    touch, and with the 1.2 MB hospital those re-shreds take 85 % of the
    window and leave ~250 ops in it, too few for a steady median.  ``tiny``:
    every generator's unit-test size, for ``adhoc``, ``--smoke`` and the
    check matrix.
    """
    started = time.perf_counter()
    if size == "tiny":
        documents = {
            "curriculum.xml": generate_curriculum_xml(CurriculumConfig.tiny()),
            "auction.xml": generate_auction_site_xml(XMarkConfig.tiny()),
            "hospital.xml": generate_hospital_xml(HospitalConfig.tiny()),
            "play.xml": generate_play_xml(PlayConfig.tiny()),
        }
    else:
        hospital = (HospitalConfig.medium() if size == "full"
                    else HospitalConfig(patients=100))
        documents = {
            "curriculum.xml": generate_curriculum_xml(CurriculumConfig.medium()),
            "auction.xml": generate_auction_site_xml(XMarkConfig.small()),
            "hospital.xml": generate_hospital_xml(hospital),
            "play.xml": generate_play_xml(PlayConfig.romeo_and_juliet()),
        }
    return documents, time.perf_counter() - started


def notes_xml(rng: random.Random, version: int) -> str:
    """A ~5 KB ``notes.xml``; ``version`` makes each write distinguishable."""
    notes = "".join(
        f'<note id="n{index}">{"%08x" % rng.getrandbits(32)} '
        f'{"lorem ipsum dolor sit amet " * 3}</note>'
        for index in range(48))
    return f'<notes version="{version}">{notes}</notes>'
