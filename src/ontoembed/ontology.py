"""Knowledge graphs, glossaries and the contrastive training corpus.

A loaded :class:`KnowledgeGraph` is immutable: loaders and mergers always
return new graphs, and a completed graph may be read from any number of
threads. Surface text comes out of the graph in four flavours (names, human
definitions, generated definitions, templated relation descriptions), and
the corpus builder turns those into anchor/positive training pairs.

File formats, each read through ``config.read_records``:
  ontology JSONL  one concept object per line, see ``load_ontology``
  templates TSV   relation_type <TAB> template with {SOURCE} and {TARGET}
  glossary JSONL  {"id": ..., "definition": ...}
  corpus JSONL    one training pair per line, see ``corpus_line``
  parallel TSV    source_text <TAB> target_text <TAB> language
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .config import DomainError, json_field, read_records

log = logging.getLogger(__name__)

KIND_NAME = "name"
KIND_HUMAN_DEF = "human_definition"
KIND_GENERATED_DEF = "generated_definition"
KIND_TEMPLATED = "templated_description"
DESCRIPTION_KINDS = (KIND_NAME, KIND_HUMAN_DEF, KIND_GENERATED_DEF, KIND_TEMPLATED)

DEF_SOURCES = ("human", "generated")

# is-a parent edges are verbalized through this reserved relation type.
IS_A = "is_a"


class OntologyError(DomainError):
    pass


class ValidationError(OntologyError):
    def __init__(self, message: str, concept_id: str | None = None):
        super().__init__(message)
        self.concept_id = concept_id


class CycleError(ValidationError):
    def __init__(self, cycle: list[str]):
        super().__init__("is-a cycle: " + " -> ".join(cycle), concept_id=cycle[0])
        self.cycle = cycle


class UnknownConceptError(OntologyError):
    def __init__(self, concept_id: str):
        super().__init__(f"unknown concept id {concept_id!r}")
        self.concept_id = concept_id


@dataclass(frozen=True)
class Definition:
    text: str
    source: str = "human"
    language: str = "en"

    def __post_init__(self):
        if not self.text:
            raise ValueError("definition text must be non-empty")
        if self.source not in DEF_SOURCES:
            raise ValueError(f"definition source must be one of {DEF_SOURCES}")


@dataclass(frozen=True)
class Concept:
    """One node: surface names (first is canonical), is-a parents, typed
    relations and textual definitions."""

    id: str
    names: tuple[str, ...]
    semantic_type: str = ""
    parents: tuple[str, ...] = ()
    relations: tuple[tuple[str, str], ...] = ()
    definitions: tuple[Definition, ...] = ()

    def __post_init__(self):
        if not self.id:
            raise ValueError("concept id must be non-empty")
        if not self.names or any(not n.strip() for n in self.names):
            raise ValueError(f"concept {self.id!r} needs non-empty names")

    @property
    def canonical_name(self) -> str:
        return self.names[0]


@dataclass(frozen=True)
class RelationTemplate:
    relation_type: str
    template: str

    def __post_init__(self):
        if self.template.count("{SOURCE}") != 1 or self.template.count("{TARGET}") != 1:
            raise ValueError(
                f"template for {self.relation_type!r} must contain exactly one "
                "{SOURCE} and one {TARGET}"
            )

    def render(self, source_name: str, target_name: str) -> str:
        return self.template.replace("{SOURCE}", source_name).replace("{TARGET}", target_name)


@dataclass(frozen=True)
class Description:
    """One textual surface form of a concept, tagged by kind and language."""

    concept_id: str
    text: str
    kind: str
    language: str = "en"

    def __post_init__(self):
        if self.kind not in DESCRIPTION_KINDS:
            raise ValueError(f"unknown description kind {self.kind!r}")


@dataclass(frozen=True)
class TrainingPair:
    anchor: Description
    positive: Description

    def __post_init__(self):
        if self.anchor.kind != KIND_NAME:
            raise ValueError("anchor must be a name description")
        if self.positive.kind == KIND_NAME:
            raise ValueError("positive must not be a name description")
        if self.anchor.concept_id != self.positive.concept_id:
            raise ValueError("anchor and positive must share a concept id")

    @property
    def concept_id(self) -> str:
        return self.anchor.concept_id


@dataclass(frozen=True)
class ParallelPair:
    source_text: str
    target_text: str
    target_language: str

    def __post_init__(self):
        if not self.source_text or not self.target_text or not self.target_language:
            raise ValueError("parallel pair texts and language must be non-empty")


class KnowledgeGraph:
    """Concepts indexed by id plus relation templates.

    Instances are built once by the loaders and never mutated afterwards.
    """

    def __init__(self, concepts: dict[str, Concept],
                 templates: dict[str, RelationTemplate] | None = None):
        self._concepts = dict(concepts)
        self._templates = dict(templates or {})

    def __len__(self) -> int:
        return len(self._concepts)

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self._concepts

    @property
    def concept_ids(self) -> list[str]:
        """Ids in load order (the JSONL file order)."""
        return list(self._concepts)

    @property
    def templates(self) -> dict[str, RelationTemplate]:
        return dict(self._templates)

    def get(self, concept_id: str) -> Concept:
        try:
            return self._concepts[concept_id]
        except KeyError:
            raise UnknownConceptError(concept_id) from None

    def concepts(self) -> list[Concept]:
        return list(self._concepts.values())

    def with_templates(self, templates: dict[str, RelationTemplate]) -> "KnowledgeGraph":
        return KnowledgeGraph(self._concepts, templates)


def _parse_concept(obj: dict) -> Concept:
    return Concept(
        id=json_field(obj, "id"),
        names=tuple(n.strip() for n in json_field(obj, "names", (str,))),
        semantic_type=json_field(obj, "semantic_type", default=""),
        parents=tuple(json_field(obj, "parents", (str,), ())),
        relations=tuple((json_field(r, "type"), json_field(r, "target"))
                        for r in json_field(obj, "relations", (dict,), ())),
        definitions=tuple(Definition(json_field(d, "text"),
                                     json_field(d, "source", default="human"),
                                     json_field(d, "language", default="en"))
                          for d in json_field(obj, "definitions", (dict,), ())),
    )


def _find_cycle(concepts: dict[str, Concept]) -> list[str] | None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {cid: WHITE for cid in concepts}

    def visit(start: str) -> list[str] | None:
        stack: list[tuple[str, int]] = [(start, 0)]
        path = [start]
        color[start] = GRAY
        while stack:
            node, idx = stack[-1]
            parents = concepts[node].parents
            if idx < len(parents):
                stack[-1] = (node, idx + 1)
                nxt = parents[idx]
                if color[nxt] == GRAY:
                    return path[path.index(nxt):] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
                    path.append(nxt)
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
        return None

    for cid in concepts:
        if color[cid] == WHITE:
            cycle = visit(cid)
            if cycle is not None:
                return cycle
    return None


def load_ontology(path) -> KnowledgeGraph:
    """Load a concept graph from JSONL and validate it.

    Each line is one object:
    {"id": str, "names": [str, ...], "semantic_type": str, "parents": [str],
     "relations": [{"type": str, "target": str}], "definitions":
     [{"text": str, "source": "human"|"generated", "language": str}]}

    Rejected outright: malformed lines (with line number), duplicate ids,
    parent or relation targets that do not resolve, and cycles in the is-a
    subgraph. Templates are attached separately via ``load_templates``.
    """
    concepts: dict[str, Concept] = {}
    for concept in read_records(path, _parse_concept):
        if concept.id in concepts:
            raise ValidationError(f"duplicate concept id {concept.id!r}",
                                  concept_id=concept.id)
        concepts[concept.id] = concept

    for concept in concepts.values():
        for parent in concept.parents:
            if parent not in concepts:
                raise ValidationError(
                    f"concept {concept.id!r}: parent {parent!r} does not resolve",
                    concept_id=parent,
                )
        for rtype, target in concept.relations:
            if target not in concepts:
                raise ValidationError(
                    f"concept {concept.id!r}: relation {rtype!r} target "
                    f"{target!r} does not resolve",
                    concept_id=target,
                )

    cycle = _find_cycle(concepts)
    if cycle is not None:
        raise CycleError(cycle)

    log.info("loaded %d concepts from %s", len(concepts), path)
    return KnowledgeGraph(concepts)


def load_templates(path) -> dict[str, RelationTemplate]:
    """Load relation templates from a two-column TSV."""
    templates: dict[str, RelationTemplate] = {}

    def add(rtype: str, template: str) -> None:
        if rtype in templates:
            raise ValueError(f"duplicate template for relation {rtype!r}")
        templates[rtype] = RelationTemplate(rtype, template)

    read_records(path, add, columns=2)
    return templates


@dataclass(frozen=True)
class GlossaryMergeStats:
    added: int
    skipped_unknown: int


def _glossary_entry(obj: dict) -> tuple[str, Definition]:
    return json_field(obj, "id"), Definition(json_field(obj, "definition"), "generated",
                                             json_field(obj, "language", default="en"))


def merge_glossary(kg: KnowledgeGraph, path) -> tuple[KnowledgeGraph, GlossaryMergeStats]:
    """Append glossary definitions (source=generated) to their concepts.

    Entries whose id is not in the graph are counted and skipped, never
    fatal; existing definitions are left untouched. Running the merge twice
    therefore doubles the generated definitions.
    """
    extra: dict[str, list[Definition]] = {}
    skipped = 0
    for cid, definition in read_records(path, _glossary_entry):
        if cid in kg:
            extra.setdefault(cid, []).append(definition)
        else:
            skipped += 1

    added = sum(len(v) for v in extra.values())
    if skipped:
        log.info("glossary %s: skipped %d entries with unknown ids", path, skipped)
    merged = {c.id: replace(c, definitions=c.definitions + tuple(extra[c.id]))
              if c.id in extra else c for c in kg.concepts()}
    return KnowledgeGraph(merged, kg.templates), GlossaryMergeStats(added, skipped)


def _templated_candidates(kg: KnowledgeGraph, concept: Concept) -> list[Description]:
    """Full substitution set in canonical order: typed relations as listed,
    then is-a parents through the reserved is_a template."""
    templates = kg.templates
    edges = list(concept.relations) + [(IS_A, p) for p in concept.parents]
    name = concept.canonical_name
    return [Description(concept.id, templates[rtype].render(name, kg.get(target).canonical_name),
                        KIND_TEMPLATED)
            for rtype, target in edges if rtype in templates]


def verbalize_relations(
    kg: KnowledgeGraph, concept_id: str, max_count: int, rng_seed: int
) -> list[Description]:
    """Render up to ``max_count`` templated descriptions for one concept.

    Relations without a matching template are skipped. When more candidates
    exist than ``max_count``, a uniform without-replacement sample is drawn
    (seeded); the returned subset keeps the canonical candidate order.
    """
    if max_count < 1:
        raise ValueError("max_count must be >= 1")
    concept = kg.get(concept_id)
    full = _templated_candidates(kg, concept)
    if len(full) <= max_count:
        return full
    rng = np.random.default_rng(rng_seed)
    chosen = rng.choice(len(full), size=max_count, replace=False)
    return [full[i] for i in sorted(int(i) for i in chosen)]


def definition_descriptions(concept: Concept) -> list[Description]:
    kinds = {"human": KIND_HUMAN_DEF, "generated": KIND_GENERATED_DEF}
    return [
        Description(concept.id, d.text, kinds[d.source], d.language)
        for d in concept.definitions
    ]


def build_corpus(
    kg: KnowledgeGraph, per_concept_templated: int, rng_seed: int
) -> list[TrainingPair]:
    """Emit the contrastive corpus: every (name x definition) combination
    plus every (name x sampled templated description), concept by concept
    in load order. Deterministic for a given (kg, rng_seed)."""
    master = np.random.default_rng(rng_seed)
    pairs: list[TrainingPair] = []
    for cid in kg.concept_ids:
        concept = kg.get(cid)
        concept_seed = int(master.integers(0, 2**63))
        positives = definition_descriptions(concept)
        if per_concept_templated > 0:
            positives += verbalize_relations(kg, cid, per_concept_templated, concept_seed)
        if not positives:
            continue
        for name in concept.names:
            anchor = Description(cid, name, KIND_NAME)
            for positive in positives:
                pairs.append(TrainingPair(anchor=anchor, positive=positive))
    return pairs


def load_parallel_pairs(path) -> list[ParallelPair]:
    """Load a 3-column TSV of (source_text, target_text, language) rows."""
    pairs = read_records(path, ParallelPair, columns=3)
    counts = language_counts(pairs)
    log.info("loaded %d parallel pairs from %s (%s)", len(pairs), path,
             ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return pairs


def language_counts(pairs: list[ParallelPair]) -> dict[str, int]:
    return dict(Counter(p.target_language for p in pairs))


def canonical_definition(kg: KnowledgeGraph, concept_id: str) -> str:
    """The single definition text used for distillation targets.

    Priority: first human definition, else first generated definition, else
    the first templated verbalization in canonical order, else the canonical
    name itself.
    """
    concept = kg.get(concept_id)
    for source in ("human", "generated"):
        for d in concept.definitions:
            if d.source == source:
                return d.text
    templated = _templated_candidates(kg, concept)
    if templated:
        return templated[0].text
    return concept.canonical_name


def all_descriptions(kg: KnowledgeGraph, concept_id: str) -> list[Description]:
    """Every textual variant of a concept: names, definitions, and the full
    templated substitution set."""
    concept = kg.get(concept_id)
    out = [Description(concept_id, n, KIND_NAME) for n in concept.names]
    out += definition_descriptions(concept)
    out += _templated_candidates(kg, concept)
    return out


def corpus_line(pair: TrainingPair) -> str:
    row = {
        "concept_id": pair.concept_id,
        "anchor": {"text": pair.anchor.text, "kind": pair.anchor.kind,
                   "language": pair.anchor.language},
        "positive": {"text": pair.positive.text, "kind": pair.positive.kind,
                     "language": pair.positive.language},
    }
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def load_corpus(path) -> list[TrainingPair]:
    """Load training pairs written one per line by ``corpus_line``."""

    def pair(obj: dict) -> TrainingPair:
        cid = json_field(obj, "concept_id")
        anchor, positive = (
            Description(cid, json_field(d, "text"), json_field(d, "kind"),
                        json_field(d, "language", default="en"))
            for d in (json_field(obj, "anchor", dict), json_field(obj, "positive", dict)))
        return TrainingPair(anchor=anchor, positive=positive)

    return read_records(path, pair)
