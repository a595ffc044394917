"""The four benchmark workloads of Section 5 / Table 2.

Each workload knows how to build its document(s) at the paper's size labels
and how to phrase its query in two equivalent formulations:

* the **IFP form** using ``with $x seeded by … recurse …`` (evaluated by the
  engine's native fixed point operator — the MonetDB/XQuery µ/µ∆ role), and
* the **UDF form** using the recursive user-defined functions ``fix``/
  ``delta`` of Figures 2 and 4 (the source-level rewriting any XQuery
  processor can apply — the Saxon role).

Two small corrections relative to the paper's listings are applied and
documented in DESIGN.md ("Reproducing Table 2"): the termination test of ``fix`` uses
``empty($res except $x)`` (the printed operand order never terminates on
acyclic data), and the initial call of ``delta`` passes ``rec($seed)`` for
both parameters (the printed ``delta(rec($seed), ())`` would drop the first
derivation from the result).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.xdm.node import DocumentNode
from repro.datagen.curriculum import CurriculumConfig, generate_curriculum
from repro.datagen.hospital import HospitalConfig, generate_hospital
from repro.datagen.plays import PlayConfig, generate_play
from repro.datagen.xmark import XMarkConfig, generate_auction_site


@dataclass(frozen=True)
class WorkloadSize:
    """One row of Table 2: a size label plus its document builder."""

    label: str
    build_document: Callable[[], DocumentNode]
    #: Default number of seeds Table 2 iterates (None = all).  The paper
    #: ran full documents on compiled engines; the pure-Python default keeps
    #: run times reasonable while preserving the Naive/Delta ratios.
    default_seed_limit: int | None = None
    #: The Table 2 row this size reproduces (None for extra sizes).
    paper_row: str | None = None


@dataclass(frozen=True)
class Workload:
    """A benchmark workload: documents plus query formulations."""

    name: str
    description: str
    document_uri: str
    sizes: dict[str, WorkloadSize]
    prolog: str
    recursion_body: str
    seed_expression: str
    seeds_expression: str
    result_template: str
    recursion_variable: str = "x"

    # -- query texts -----------------------------------------------------------

    def closure_expression(self, algorithm: str) -> str:
        """The per-seed IFP expression."""
        using = "" if algorithm == "auto" else f" using {algorithm}"
        return (f"(with ${self.recursion_variable} seeded by {self.seed_expression} "
                f"recurse {self.recursion_body}{using})")

    def ifp_query(self, algorithm: str = "auto", seed_limit: int | None = None) -> str:
        """The workload query in IFP form."""
        return self._text(self._main(self.closure_expression(algorithm), seed_limit))

    def udf_query(self, variant: str = "fix", seed_limit: int | None = None) -> str:
        """The workload query in source-level ``fix``/``delta`` UDF form."""
        return self._text(self._udf_declarations(),
                          self._main(_udf_call(variant), seed_limit))

    def seed_query(self, algorithm: str, udf: bool = False) -> str:
        """One seed's answer, the seed bound to ``declare variable $s external``.

        ``algorithm`` is ``naive`` or ``delta``: the ``using`` clause of the
        IFP closure or, with ``udf``, the ``fix``/``delta`` function called.
        """
        if udf:
            declarations = self._udf_declarations()
            closure = _udf_call("delta" if algorithm == "delta" else "fix")
        else:
            declarations, closure = "", self.closure_expression(algorithm)
        return self._text(declarations, "declare variable $s external;",
                          self.result_template.replace("{closure}", closure))

    def _udf_declarations(self) -> str:
        return f"""
declare function rec ($x) as node()*
{{ {self.recursion_body}
}};
declare function fix ($x) as node()*
{{ let $res := rec ($x)
  return if (empty ($res except $x))
         then $x
         else fix ($res union $x)
}};
declare function delta ($x, $res) as node()*
{{ let $delta := rec ($x) except $res
  return if (empty ($delta))
         then $res
         else delta ($delta, $delta union $res)
}};
"""

    def _text(self, *parts: str) -> str:
        return "\n".join(part.strip() for part in (self.prolog, *parts) if part.strip())

    def _main(self, closure: str, seed_limit: int | None) -> str:
        seeds = self.seeds_expression
        if seed_limit is not None:
            seeds = f"subsequence({seeds}, 1, {seed_limit})"
        body = self.result_template.replace("{closure}", closure)
        return f"for $s in {seeds}\nreturn {body}"

    # -- sizes --------------------------------------------------------------------

    def size(self, label: str) -> WorkloadSize:
        try:
            return self.sizes[label]
        except KeyError:
            raise KeyError(
                f"workload '{self.name}' has no size '{label}' "
                f"(available: {', '.join(sorted(self.sizes))})"
            ) from None


def _udf_call(variant: str) -> str:
    if variant not in ("fix", "delta"):
        raise ValueError(f"unknown UDF variant {variant!r}")
    return "(fix (rec ($s)))" if variant == "fix" else "(delta (rec ($s), rec ($s)))"


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------


BIDDER_NETWORK = Workload(
    name="bidder-network",
    description="XMark bidder network (Figure 10): recursively connect sellers and bidders",
    document_uri="auction.xml",
    sizes={
        "tiny": WorkloadSize("tiny", lambda: generate_auction_site(XMarkConfig.tiny()), None),
        "small": WorkloadSize("small", lambda: generate_auction_site(XMarkConfig.small()),
                              40, "Bidder network (small)"),
        "medium": WorkloadSize("medium", lambda: generate_auction_site(XMarkConfig.medium()),
                               30, "Bidder network (medium)"),
        "large": WorkloadSize("large", lambda: generate_auction_site(XMarkConfig.large()),
                              20, "Bidder network (large)"),
        "huge": WorkloadSize("huge", lambda: generate_auction_site(XMarkConfig.huge()),
                             12, "Bidder network (huge)"),
    },
    prolog="""
declare variable $doc := doc("auction.xml");
declare function bidder ($in as node()*) as node()*
{ for $id in $in/@id
  let $b := $doc//open_auction[seller/@person = $id]/bidder/personref
  return $doc//people/person[@id = $b/@person]
};
""",
    recursion_body="bidder ($x)",
    seed_expression="$s",
    seeds_expression="$doc//people/person",
    result_template="<person>{ $s/@id }{ data (({closure})/@id) }</person>",
)


DIALOGS = Workload(
    name="dialogs",
    description="Romeo and Juliet: longest uninterrupted alternating dialog "
                "(horizontal recursion along following-sibling)",
    document_uri="play.xml",
    sizes={
        "tiny": WorkloadSize("tiny", lambda: generate_play(PlayConfig.tiny()), None),
        "default": WorkloadSize("default", lambda: generate_play(PlayConfig.romeo_and_juliet()),
                                400, "Romeo and Juliet"),
    },
    prolog="""
declare variable $doc := doc("play.xml");
""",
    recursion_body=(
        "$x/following-sibling::SPEECH[1]"
        "[not(SPEAKER = preceding-sibling::SPEECH[1]/SPEAKER)]"
    ),
    seed_expression="$s",
    seeds_expression="$doc//SPEECH",
    result_template="<dialog>{ count({closure}) + 1 }</dialog>",
)


CURRICULUM = Workload(
    name="curriculum",
    description="Curriculum consistency check: courses among their own prerequisites "
                "(transitive closure over fn:id links)",
    document_uri="curriculum.xml",
    sizes={
        "tiny": WorkloadSize("tiny", lambda: generate_curriculum(CurriculumConfig.tiny()), None),
        "medium": WorkloadSize("medium", lambda: generate_curriculum(CurriculumConfig.medium()),
                               100, "Curriculum (medium)"),
        "large": WorkloadSize("large", lambda: generate_curriculum(CurriculumConfig.large()),
                              80, "Curriculum (large)"),
    },
    prolog="""
declare variable $doc := doc("curriculum.xml");
""",
    recursion_body="$x/id (./prerequisites/pre_code)",
    seed_expression="$s",
    # Seeds are taken from the back of the catalogue (the advanced courses)
    # because their prerequisite closures are the deep ones; the consistency
    # check itself is order-insensitive.
    seeds_expression="reverse($doc/curriculum/course)",
    result_template="if (exists($s intersect {closure})) then $s else ()",
)


HOSPITAL = Workload(
    name="hospital",
    description="Hospital hereditary disease: count diagnosed ancestors per patient "
                "(vertical recursion into parent subtrees, depth <= 5)",
    document_uri="hospital.xml",
    sizes={
        "tiny": WorkloadSize("tiny", lambda: generate_hospital(HospitalConfig.tiny()), None),
        "medium": WorkloadSize("medium", lambda: generate_hospital(HospitalConfig.medium()),
                               400, "Hospital (medium)"),
        "paper": WorkloadSize("paper", lambda: generate_hospital(HospitalConfig.paper()),
                              400, "Hospital (medium)"),
    },
    prolog="""
declare variable $doc := doc("hospital.xml");
""",
    recursion_body="$x/parent",
    seed_expression="$s",
    seeds_expression="$doc/hospital/patient",
    result_template=(
        "<patient>{ $s/@id }"
        "{ count(({closure})[@diagnosed = \"yes\"]) }</patient>"
    ),
)


#: All workloads by name.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (BIDDER_NETWORK, DIALOGS, CURRICULUM, HOSPITAL)
}


def get_workload(name: str) -> Workload:
    """Look up a workload by name."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload '{name}' (available: {', '.join(sorted(WORKLOADS))})"
        ) from None
