"""Assembly of the final KGC input text with token-budget truncation.

The rendered input has a fixed section order with frozen header strings, so
downstream description-based KGC models can consume it unchanged::

    Entity: <name>

    # Generated Entity Description:
    <text>

    # Neighbor Contexts:
    # FICHAD-1
    <relation>|<neighbor>:
    <text>

    Relation: <name>
    # Relation Template:
    <template>

    Query: (<head-or-?>, <relation>, <tail-or-?>)

:func:`truncate` is the one budget cut. :func:`build_kgc_input` applies it to
the :class:`Sections` before they are rendered, so rendered text is never
parsed back. It drops neighbor entries from the last, then the
description's word tail, then the headers, then the entity, template and
relation lines; the Query line is never dropped. Tokens are
whitespace-separated words, a stated approximation of the downstream
model's subword count.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass

from .context import GeneratedContext, V1, V2
from .kg import KnowledgeGraph, OUT, written_beside
from .linkpred import Query, TAIL

ENTITY_HEADER = "Entity:"
DESC_HEADER = "# Generated Entity Description:"
NEIGHBOR_HEADER = "# Neighbor Contexts:"
RELATION_HEADER = "Relation:"
TEMPLATE_HEADER = "# Relation Template:"
QUERY_HEADER = "Query:"


class BuildError(Exception):
    pass


class TruncationError(Exception):
    pass


def whitespace_words(text: str) -> int:
    return len(text.split())


@dataclass
class TokenBudget:
    """Token limit, counted in whitespace-separated words."""

    limit: int

    def __post_init__(self):
        if self.limit < 1:
            raise ValueError("token budget must be >= 1")


@dataclass
class KgcInput:
    """One assembled KGC model input."""

    query: Query
    text: str
    truncated: bool = False
    skipped_neighbors: int = 0


class ContextIndex:
    """The texts of a context store, the first per key."""

    def __init__(self, contexts: Iterable[GeneratedContext],
                 graph: KnowledgeGraph):
        self.by_entity: dict[int, str] = {}  # fichad-2 summaries
        self.by_triple: dict[tuple[int, int, int, str], str] = {}
        self.touching: dict[int, str] = {}  # link-aware texts per entity
        for ctx in contexts:
            if ctx.variant == V2:
                self.by_entity.setdefault(*ctx.handles(graph), ctx.text)
            else:
                h, r, t = ctx.handles(graph)
                self.by_triple.setdefault((h, r, t, ctx.variant), ctx.text)
                self.touching.setdefault(h, ctx.text)
                self.touching.setdefault(t, ctx.text)

    def entity_description(self, entity: int) -> str | None:
        """fichad-2 summary when present, else any link-aware text touching it."""
        return self.by_entity.get(entity, self.touching.get(entity))


def query_line(query: Query, graph: KnowledgeGraph) -> str:
    rel = graph.relations.display_name(query.relation)
    known = graph.entities.display_name(query.known)
    if query.direction == TAIL:
        return f"{QUERY_HEADER} ({known}, {rel}, ?)"
    return f"{QUERY_HEADER} (?, {rel}, {known})"


def build_kgc_input(query: Query, index: ContextIndex, graph: KnowledgeGraph,
                    k: int, variant: str = V1,
                    budget: TokenBudget | None = None,
                    relation_templates: dict[str, str] | None = None) -> KgcInput:
    """Assemble the KGC input for one query.

    Neighbor contexts come from the deterministic ``neighbors(k)`` selection;
    neighbors whose context is missing from the store are skipped and counted.
    Raises :class:`BuildError` when the query entity has no context at all.
    """
    ent_names = graph.entities
    entity = query.known
    entity_name = ent_names.display_name(entity)
    relation_name = graph.relations.display_name(query.relation)

    description = index.entity_description(entity)
    if description is None:
        raise BuildError(f"no generated context for entity {entity_name!r}")

    entries = []  # "<label>\n<text>"
    skipped = 0
    for rel, nbr, direction in graph.neighbors(entity, k):
        if variant == V2:
            text = index.by_entity.get(nbr)
        else:
            h, t = (entity, nbr) if direction == OUT else (nbr, entity)
            text = index.by_triple.get((h, rel, t, variant))
        if text is None:
            skipped += 1
            continue
        entries.append(f"{graph.relations.display_name(rel)}|"
                       f"{ent_names.display_name(nbr)}:\n{text}")

    rel_label = graph.relations.label_of(query.relation)
    template = f"[A] {relation_name} [B]"
    if relation_templates and relation_templates.get(rel_label):
        template = relation_templates[rel_label]

    if entries:
        marker = "# FICHAD-2" if variant == V2 else "# FICHAD-1"
        entries[0] = f"{marker}\n{entries[0]}"
    sections = Sections(
        entity=f"{ENTITY_HEADER} {entity_name}", description=description,
        neighbors=entries, relation=f"{RELATION_HEADER} {relation_name}",
        template=f"{TEMPLATE_HEADER}\n{template}",
        query=query_line(query, graph))
    truncated = budget is not None and truncate(sections, budget.limit)
    return KgcInput(query=query, text=_render(sections), truncated=truncated,
                    skipped_neighbors=skipped)


# -- sections, rendering and truncation ------------------------------------

@dataclass
class Sections:
    """The parts of one KGC input in render order; ``None`` drops a part.

    ``entity``, ``relation`` and ``template`` include their headers. The
    first neighbor entry starts with the variant marker, so the marker goes
    with the last entry.
    """

    entity: str | None
    description: str | None
    neighbors: list[str] | None  # "<label>\n<text>" entries
    relation: str | None
    template: str | None
    query: str


def _render(s: Sections) -> str:
    parts: list[str] = []
    if s.entity is not None:
        parts += [s.entity, ""]
    if s.description is not None:
        parts += [DESC_HEADER, s.description, ""]
    if s.neighbors is not None:
        parts += [NEIGHBOR_HEADER, *s.neighbors, ""]
    relation_block = [p for p in (s.relation, s.template) if p is not None]
    if relation_block:
        parts += [*relation_block, ""]
    parts.append(s.query)
    return "\n".join(parts)


#: parts dropped whole, in this order, after the neighbors and description
_WHOLE = ("entity", "template", "relation")


def truncate(s: Sections, limit: int) -> bool:
    """Cut ``s`` in place to ``limit`` words; True when anything was cut.

    Sections that fit are left unchanged. A limit smaller than the Query
    line raises :class:`TruncationError`. Lines are joined by newlines, so
    the word count is the sum of the parts' counts: each part is counted
    once and the cuts are arithmetic.
    """
    words = whitespace_words
    entries = [words(e) for e in s.neighbors or ()]
    desc = (s.description or "").split()
    headers = ((s.description is not None) * words(DESC_HEADER)
               + (s.neighbors is not None) * words(NEIGHBOR_HEADER))
    whole = [words(getattr(s, name) or "") for name in _WHOLE]
    query = words(s.query)
    over = sum(entries) + len(desc) + headers + sum(whole) + query - limit
    if over <= 0:
        return False
    if query > limit:
        raise TruncationError(f"budget {limit} cannot hold the query line")
    while entries and over > 0:
        over -= entries.pop()
        s.neighbors.pop()
    if over > 0 and desc:
        keep = max(len(desc) - over, 0)
        over -= len(desc) - keep
        s.description = " ".join(desc[:keep])
    if over > 0:
        over -= headers
        s.description = s.neighbors = None
    for name, cost in zip(_WHOLE, whole):
        if over > 0:
            over -= cost
            setattr(s, name, None)
    return True


def export_prompts(inputs: Iterable[KgcInput], path) -> None:
    """Write one JSONL record per input as it arrives, to a file beside
    ``path`` renamed over it at the end: a failed input leaves no half file."""
    with written_beside(path) as tmp, \
            open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        for item in inputs:
            q = item.query
            rec = {"query": {"direction": q.direction, "known": q.known,
                             "relation": q.relation, "answer": q.answer},
                   "text": item.text,
                   "n_tokens": whitespace_words(item.text),
                   "truncated": item.truncated}
            fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n")
