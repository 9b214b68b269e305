"""Link-aware context generation: image filtering, context variants, hints.

The pipeline turns entity images into textual context via a generation
backend: relevance-filtered link-aware summaries (fichad-1), unfiltered
entity-centric summaries (fichad-2), and the two augmented variants that
append a database description sentence (1+x) or a conceptual hint (1+y).
Entities or triples with no image clearing the relevance threshold fall back
to name-only generation, flagged so coverage statistics can exclude them.

Every per-item routine is a request program, and one driver,
:func:`run_waves`, runs them :data:`WINDOW` at a time, sending each step's
requests of a whole window to the backend as one batch.
"""

from __future__ import annotations

import json
import random
import string
from collections.abc import Iterable, Iterator
from contextlib import closing
from dataclasses import dataclass, field, asdict
from itertools import chain, islice, starmap
from pathlib import Path

import numpy as np

from .backend import RELEVANCE, BackendError, CapabilityError, \
    GenerationBackend, GenerationRequest
from .kg import KnowledgeGraph, MultimodalAssets, Triple, _sorted_unique, \
    first_sentence

V1 = "fichad-1"
V2 = "fichad-2"
V1X = "fichad-1+x"
V1Y = "fichad-1+y"
VARIANTS = (V1, V2, V1X, V1Y)

#: images grouped per endpoint for link-aware generation
MAX_GROUP = 5
#: default relevance threshold on the yes-token probability
DEFAULT_TAU = 0.85
#: triples sampled per relation for hints and relation templates
SAMPLE_TRIPLES = 20


class TemplateError(Exception):
    pass


DEFAULT_TEMPLATES = {
    "relevance": (
        "Do these images depict both {head} and {tail} together or in a "
        "directly related scene? Answer yes or no."),
    "entity_description": (
        "Describe {entity} in one concise sentence based on the attached "
        "images."),
    "link_summary": (
        "In one sentence, summarize how {head} and {tail} appear together "
        "in the attached images. {head}: {d_head} {tail}: {d_tail}"),
    "link_summary_fallback": (
        "In one sentence, describe the likely connection between {head} and "
        "{tail} using only their names."),
    "entity_summary": (
        "Write a holistic visual description of {entity} based on all "
        "attached images."),
    "entity_summary_fallback": (
        "Describe {entity} in one sentence using only its name."),
    "hint": (
        "Question: what completes ({entity}, {relation}, ?)? Example triples "
        "for this relation: {triples}. Visual summary of {entity}: {summary}. "
        "In one or two sentences, state the likely type of the missing "
        "entity."),
    "relation_template": (
        "Example triples for the relation '{relation}': {triples}. Write one "
        "natural-language sentence template for this relation using the "
        "placeholders [A] and [B] exactly once each."),
}


def _slots(template: str) -> set[str]:
    """Names of the ``{slot}`` fields in ``template``; malformed is ValueError."""
    return {name for _, name, _, _ in string.Formatter().parse(template)
            if name is not None}


def instantiate(template: str, **slots: str) -> str:
    """Pure slot substitution; every referenced slot must be provided."""
    fields_needed = _slots(template)
    missing = fields_needed - slots.keys()
    if missing:
        raise TemplateError(f"unfilled template slots: {sorted(missing)}")
    return template.format(**{k: slots[k] for k in fields_needed})


def load_templates(path) -> dict[str, str]:
    """The default wordings, each replaced by a ``<name>.txt`` file in ``path``.

    A missing directory, a file named after no key of
    :data:`DEFAULT_TEMPLATES`, an empty file, a malformed format string, or
    a slot its default wording lacks raises :class:`TemplateError`.
    """
    directory = Path(path)
    if not directory.is_dir():
        raise TemplateError(f"prompt template directory not found: {path}")
    templates = dict(DEFAULT_TEMPLATES)
    for f in sorted(directory.glob("*.txt")):
        if f.stem not in DEFAULT_TEMPLATES:
            raise TemplateError(
                f"{f}: unknown prompt template {f.stem!r} (known: "
                f"{', '.join(sorted(DEFAULT_TEMPLATES))})")
        text = f.read_text(encoding="utf-8").strip()
        if not text:
            raise TemplateError(f"{f}: empty prompt template")
        known = _slots(DEFAULT_TEMPLATES[f.stem])
        try:
            unknown = _slots(text) - known
            if not unknown:  # a trial fill finds bad conversions and specs
                text.format(**dict.fromkeys(known, ""))
        except (ValueError, LookupError) as exc:
            raise TemplateError(f"{f}: malformed template: {exc}") from None
        if unknown:
            raise TemplateError(f"{f}: unknown template slots "
                                f"{sorted(unknown)} (known: {sorted(known)})")
        templates[f.stem] = text
    return templates


def _request(templates: dict[str, str], name: str, subjects: tuple[str, ...],
             images=(), **slots: str) -> GenerationRequest:
    """Free-text request from the template ``name`` filled with ``slots``."""
    return GenerationRequest(prompt=instantiate(templates[name], **slots),
                             images=tuple(images), subjects=subjects)


@dataclass
class ScoredImage:
    ref: str
    score: float


#: the JSON type of each store field, and the fields every line needs
_FIELDS = {"variant": str, "subject": dict, "text": str, "images": list,
           "fallback": bool}
_REQUIRED = {"variant", "subject", "text"}
#: the subject kind each variant fixes, and that kind's label keys
_SUBJECTS = {V2: ("entity", ("entity",))} | dict.fromkeys(
    (V1, V1X, V1Y), ("triple", ("head", "relation", "tail")))


@dataclass
class GeneratedContext:
    """One unit of generated context, serializable to a JSONL store line."""

    variant: str
    subject: dict  # {"kind": ..., labels}; the variant fixes the kind
    text: str
    images: list[ScoredImage] = field(default_factory=list)
    fallback: bool = False

    def to_json_line(self) -> str:
        # from the fields: vars() would leave a dict on every instance it
        # reads (64 B each), and asdict deep-copies the subject and images
        rec = {"variant": self.variant, "subject": self.subject,
               "text": self.text, "fallback": self.fallback,
               "images": [{"ref": im.ref, "score": im.score}
                          for im in self.images]}
        return json.dumps(rec, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json_line(cls, line: str) -> "GeneratedContext":
        """One store line; raises ValueError when it is not a context, or its
        subject is not the kind its variant fixes."""
        rec = json.loads(line)
        if not (isinstance(rec, dict)
                and _REQUIRED <= rec.keys() <= _FIELDS.keys()
                and all(isinstance(v, _FIELDS[k]) for k, v in rec.items())):
            raise ValueError("not a context record: an object with string "
                             "variant and text, object subject, and optional "
                             "list images and boolean fallback, nothing else")
        variant, subject = rec["variant"], rec["subject"]
        if variant not in VARIANTS:
            raise ValueError(f"unknown context variant {variant!r} (known: "
                             f"{', '.join(VARIANTS)})")
        kind, labels = _SUBJECTS[variant]
        if not (subject.get("kind") == kind
                and all(isinstance(subject.get(k), str) for k in labels)):
            raise ValueError(f"a {variant} subject has kind {kind!r} and "
                             f"string labels {list(labels)}")
        try:
            rec["images"] = [ScoredImage(**im) for im in rec.get("images", [])]
        except TypeError:
            raise ValueError("images must be {ref, score} objects") from None
        return cls(**rec)

    def handles(self, graph: KnowledgeGraph) -> tuple[int, ...]:
        """The subject's handles; an unknown label raises VocabError."""
        ent, rel = graph.entities, graph.relations
        return tuple((rel if k == "relation" else ent).id_of(self.subject[k])
                     for k in _SUBJECTS[self.variant][1])


def read_context_store(path) -> Iterator[GeneratedContext]:
    """The contexts of a JSONL store, read one line at a time; a line that
    is not one raises ValueError naming ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if line.isspace():
                continue
            try:
                yield GeneratedContext.from_json_line(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{n}: {exc}") from None


def write_context_store(path, contexts: list[GeneratedContext]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for ctx in contexts:
            fh.write(ctx.to_json_line() + "\n")


# -- request programs and their driver ------------------------------------
#
# Each per-item routine is a request program: a generator that yields a list
# of requests, is sent back their outcomes in the same order, and returns its
# result. :func:`run_waves` advances many programs together, so the requests
# they have pending at one step travel to the backend as one batch.

#: programs advanced together by :func:`run_waves`
WINDOW = 64


def run_waves(programs, backend: GenerationBackend):
    """Run request programs :data:`WINDOW` at a time; yield their results in
    program order, each window's once the whole window has finished.

    Within a window, the programs advance in lockstep: the requests every
    unfinished program yields next form one wave, sent as a single
    ``backend.answer_many`` batch. A window of fichad-1 triples on a cold
    cache thus takes three waves: relevance, descriptions, link summaries.

    Outcomes are pulled in request order. A :class:`CapabilityError`, or a
    :class:`BackendError` of a free-text request, raises as soon as it is
    pulled, and the later requests of its wave are dropped. A relevance
    request's :class:`BackendError` is sent to its program as its outcome.
    """
    programs = iter(programs)
    while window := list(islice(programs, WINDOW)):
        results = [None] * len(window)
        sends = dict.fromkeys(range(len(window)))  # program -> its outcomes
        while sends:
            wave = {}  # program -> the requests it yielded
            for i, outcomes in sends.items():
                try:
                    wave[i] = window[i].send(outcomes)
                except StopIteration as stop:
                    results[i] = stop.value
            batch = [r for requests in wave.values() for r in requests]
            with closing(backend.answer_many(batch)) as outcomes:
                answers = iter([_checked(r, o) for r, o in zip(batch, outcomes)])
            sends = {i: list(islice(answers, len(requests)))
                     for i, requests in wave.items()}
        yield from results


def _checked(request: GenerationRequest, outcome):
    """The outcome as its program gets it; raise a failure no program handles."""
    if isinstance(outcome, CapabilityError) or (
            isinstance(outcome, BackendError) and request.kind != RELEVANCE):
        raise outcome
    return outcome


# -- core operations -----------------------------------------------------

def _filter_steps(head_name, tail_name, images_head, images_tail, tau,
                  templates):
    """Relevance-filter both endpoints' images for one entity pair.

    Each image is scored by the backend's yes-probability, both sides' in
    one wave, and :func:`_keep` keeps each side's best. A backend failure on
    an individual image scores it 0 and counts it as skipped; a
    :class:`CapabilityError` (an endpoint that cannot score relevance at
    all) raises from :func:`run_waves` at its image's position.

    Returns (filtered_head, filtered_tail, skipped_count).
    """
    prompt = instantiate(templates["relevance"], head=head_name, tail=tail_name)
    outcomes = yield [GenerationRequest(prompt=prompt, images=(ref,),
                                        kind=RELEVANCE, max_tokens=1,
                                        subjects=(head_name, tail_name))
                      for ref in (*images_head, *images_tail)]
    scores = [0.0 if isinstance(p, BackendError) else p for p in outcomes]
    skipped = sum(isinstance(p, BackendError) for p in outcomes)
    n_head = len(images_head)
    return (_keep(images_head, scores[:n_head], tau),
            _keep(images_tail, scores[n_head:], tau), skipped)


def _keep(refs: list[str], scores: list[float],
          tau: float) -> list[ScoredImage]:
    """Images scoring >= ``tau``: the :data:`MAX_GROUP` best, best first."""
    kept = [ScoredImage(ref, p) for ref, p in zip(refs, scores) if p >= tau]
    # stable sort: descending score, manifest order breaks ties
    kept.sort(key=lambda si: -si.score)
    return kept[:MAX_GROUP]


def _lamm_steps(head_name, tail_name, filtered_head, filtered_tail, templates):
    """Link-aware summary text for one entity pair (the fichad-1 core).

    With both filtered sets non-empty: per-endpoint descriptions, asked for
    in one wave (head, then tail), feed a joint one-sentence summary over all
    retained images. Otherwise a name-only fallback summary is generated.
    Returns (text, images_used, fallback).
    """
    pair = (head_name, tail_name)
    if filtered_head and filtered_tail:
        d_head, d_tail = yield [
            _request(templates, "entity_description", (name,),
                     [si.ref for si in side], entity=name)
            for name, side in ((head_name, filtered_head),
                               (tail_name, filtered_tail))]
        used = filtered_head + filtered_tail
        [text] = yield [_request(
            templates, "link_summary", pair, [si.ref for si in used],
            head=head_name, tail=tail_name, d_head=d_head, d_tail=d_tail)]
        return text, used, False
    [text] = yield [_request(templates, "link_summary_fallback", pair,
                             head=head_name, tail=tail_name)]
    return text, [], True


def _summary_steps(entity_name, images, templates):
    """Relation-agnostic summary over the full capped image list (fichad-2).

    Returns (text, fallback); entities without images get a name-only fallback.
    """
    name = "entity_summary" if images else "entity_summary_fallback"
    [text] = yield [_request(templates, name, (entity_name,), images,
                             entity=entity_name)]
    return text, not images


def sample_relation_triples(graph: KnowledgeGraph, relation: int,
                            n: int = SAMPLE_TRIPLES,
                            seed: int = 0) -> list[Triple]:
    """min(n, available) train triples of the relation, sorted then seed-sampled."""
    rows = graph.triples_with_relation(relation)
    if len(rows) > n:
        rng = random.Random(f"{seed}:{relation}")
        rows = rows[sorted(rng.sample(range(len(rows)), n))]
    return list(map(Triple._make, rows.tolist()))


def _format_triples(graph: KnowledgeGraph, triples: list[Triple]) -> str:
    ent, rel = graph.entities, graph.relations
    return "; ".join(
        f"({ent.display_name(t.head)}, {rel.display_name(t.relation)}, "
        f"{ent.display_name(t.tail)})" for t in triples)


# -- pipeline orchestration ----------------------------------------------

class ContextGenerator:
    """Contexts, hints and relation templates over one graph, one backend.

    Each public method takes many items and yields (for
    :meth:`generate_for_splits`, returns) one result per item, in item
    order, running the items' request programs through :func:`run_waves`.
    A single item is a batch of one: ``next(gen.hints([(e, r)]))``.
    """

    def __init__(self, graph: KnowledgeGraph, assets: MultimodalAssets,
                 backend: GenerationBackend,
                 templates: dict[str, str] = DEFAULT_TEMPLATES,
                 tau: float = DEFAULT_TAU, seed: int = 0):
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {tau}")
        self.graph = graph
        self.assets = assets
        self.backend = backend
        self.templates = templates
        self.tau = tau
        self.seed = seed
        self.degraded_compositions = 0
        self.skipped_images = 0

    def _name(self, entity: int) -> str:
        return self.graph.entities.display_name(entity)

    def triple_subject(self, t: Triple) -> dict:
        return {"kind": "triple",
                "head": self.graph.entities.label_of(t.head),
                "relation": self.graph.relations.label_of(t.relation),
                "tail": self.graph.entities.label_of(t.tail)}

    def filtered_images(self, triples):
        """Relevance-filtered (head, tail) images of each triple, yielded in
        order; skipped images are counted."""
        return run_waves(map(self._filter_steps, triples), self.backend)

    def _filter_steps(self, triple: Triple):
        fh, ft, skipped = yield from _filter_steps(
            self._name(triple.head), self._name(triple.tail),
            self.assets.images_of(triple.head),
            self.assets.images_of(triple.tail), self.tau, self.templates)
        self.skipped_images += skipped
        return fh, ft

    def hints(self, pairs):
        """Each (entity, relation) pair's (text, flagged) hint, in order."""
        return run_waves(starmap(self._hint_steps, pairs), self.backend)

    def _hint_steps(self, entity: int, relation: int):
        """Conceptual hint for (entity, relation, ?), on the likely type of
        the missing entity: from :data:`SAMPLE_TRIPLES` deterministically
        sampled same-relation train triples plus the entity's visual summary.
        Returns (text, flagged); flagged is True when the relation has no
        train triples and the hint had to come from the relation label alone.
        """
        ent_name = self._name(entity)
        summary, _ = yield from _summary_steps(
            ent_name, self.assets.images_of(entity), self.templates)
        rel_name = self.graph.relations.display_name(relation)
        sampled = sample_relation_triples(self.graph, relation, seed=self.seed)
        triples_text = (_format_triples(self.graph, sampled) if sampled
                        else "(none)")
        [text] = yield [_request(
            self.templates, "hint", (ent_name, rel_name), entity=ent_name,
            relation=rel_name, triples=triples_text, summary=summary)]
        return text, not sampled

    def relation_templates(self):
        """[A]/[B] template of every relation, yielded in handle order: one
        wave of first attempts, one of retries, per window."""
        return run_waves(map(self._template_steps,
                             range(len(self.graph.relations))), self.backend)

    def _template_steps(self, relation: int):
        """Natural-language [A]/[B] template for a relation, asked with the
        first image of each sampled head that has one. The reply must hold
        [A] and [B] exactly once each; one retry (the prompt plus a space, so
        a new cache key), then the literal ``[A] <label> [B]``. A
        :class:`BackendError` raises from :func:`run_waves`."""
        rel_name = self.graph.relations.display_name(relation)
        sampled = sample_relation_triples(self.graph, relation, seed=self.seed)
        images = [refs[0] for t in sampled
                  if (refs := self.assets.images_of(t.head))]
        prompt = instantiate(
            self.templates["relation_template"], relation=rel_name,
            triples=_format_triples(self.graph, sampled) or "(none)")
        for attempt in range(2):
            [text] = yield [GenerationRequest(
                prompt=prompt if attempt == 0 else prompt + " ",
                images=tuple(images), subjects=(rel_name,))]
            if text.count("[A]") == 1 and text.count("[B]") == 1:
                return text
        return f"[A] {rel_name} [B]"

    def _triple_steps(self, triple: Triple, variant: str):
        """One fichad-1-family context for a triple.

        fichad-1+x appends the first sentence of the head's database
        description, fichad-1+y the head's hint for the triple's relation. A
        fichad-1+x head without a description keeps the plain fichad-1 text
        and is counted in ``degraded_compositions``.
        """
        fh, ft = yield from self._filter_steps(triple)
        text, used, fallback = yield from _lamm_steps(
            self._name(triple.head), self._name(triple.tail), fh, ft,
            self.templates)
        if variant == V1X:
            db_desc = self.assets.description(triple.head)
            if db_desc is None:
                self.degraded_compositions += 1
            else:
                text = f"{text} {first_sentence(db_desc)}"
        elif variant == V1Y:
            hint, _ = yield from self._hint_steps(triple.head, triple.relation)
            text = f"{text} {hint}"
        return GeneratedContext(variant=variant,
                                subject=self.triple_subject(triple),
                                text=text, images=used, fallback=fallback)

    def _entity_steps(self, entity: int):
        """The fichad-2 context of one entity."""
        text, fallback = yield from _summary_steps(
            self._name(entity), self.assets.images_of(entity), self.templates)
        return GeneratedContext(
            variant=V2,
            subject={"kind": "entity",
                     "entity": self.graph.entities.label_of(entity)},
            text=text, fallback=fallback)

    def generate_for_splits(self, variant: str,
                            splits: tuple[str, ...] = ("train", "valid", "test")
                            ) -> list[GeneratedContext]:
        """Contexts for ``splits``: one per distinct triple, in split order,
        or for fichad-2 one per entity of those triples, in handle order. An
        unknown variant raises ValueError, even with no triple to generate."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown context variant {variant!r} (known: "
                             f"{', '.join(VARIANTS)})")
        if variant == V2:
            ends = [self.graph.splits[split][:, [0, 2]].ravel()
                    for split in splits]  # heads and tails
            entities = _sorted_unique(np.concatenate(
                [np.empty(0, dtype=np.int64), *ends]))
            programs = map(self._entity_steps, entities.tolist())
        else:
            triples = dict.fromkeys(chain.from_iterable(
                self.graph.triples(split) for split in splits))
            programs = (self._triple_steps(t, variant) for t in triples)
        return list(run_waves(programs, self.backend))


# -- coverage statistics -------------------------------------------------

@dataclass
class CoverageStats:
    """Context-corpus counters and display-name coverage rates."""

    dataset_id: str
    n_entities: int
    with_images: int
    with_fichad1: int
    with_fichad2: int
    triples_with_fichad1: int
    single_entity_coverage: float
    both_entity_coverage: float
    fichad2_entity_coverage: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_table(self) -> str:
        lines = [
            f"{'Dataset':<18} {'#Entity':>8} {'Images':>8} "
            f"{'FICHAD-1':>9} {'FICHAD-2':>9}",
            f"{self.dataset_id:<18} {self.n_entities:>8} {self.with_images:>8} "
            f"{self.with_fichad1:>9} {self.with_fichad2:>9}",
            "",
            f"{'Single Entity Coverage':<24} {self.single_entity_coverage:.2f}",
            f"{'Both Entity Coverage':<24} {self.both_entity_coverage:.2f}",
            f"{'FICHAD-2 Entity Coverage':<24} {self.fichad2_entity_coverage:.2f}",
        ]
        return "\n".join(lines)


def corpus_stats(contexts: Iterable[GeneratedContext], graph: KnowledgeGraph,
                 assets: MultimodalAssets,
                 dataset_id: str = "dataset") -> CoverageStats:
    """Table-style counters over a completed generation pass.

    An entity "has fichad-1" when at least one non-fallback link-aware context
    touches it; coverage rates use case-insensitive display-name substring
    matching inside the generated text. Every line's labels are resolved.
    """
    ent = graph.entities
    with_f1, with_f2 = set(), set()  # entity handles
    single_hits = both_hits = f1_total = f2_hits = f2_total = 0

    for ctx in contexts:
        ends = ctx.handles(graph)[::2]  # (head, tail), or fichad-2's (entity,)
        if ctx.fallback:
            continue
        text = ctx.text.lower()
        named = [ent.display_name(e).lower() in text for e in ends]
        if ctx.variant != V2:
            with_f1.update(ends)
            f1_total += 1
            single_hits += any(named)
            both_hits += all(named)
        else:
            with_f2.update(ends)
            f2_total += 1
            f2_hits += named[0]

    return CoverageStats(
        dataset_id=dataset_id,
        n_entities=graph.n_entities,
        with_images=len(assets.entities_with_images()),
        with_fichad1=len(with_f1),
        with_fichad2=len(with_f2),
        triples_with_fichad1=f1_total,
        single_entity_coverage=single_hits / f1_total if f1_total else 0.0,
        both_entity_coverage=both_hits / f1_total if f1_total else 0.0,
        fichad2_entity_coverage=f2_hits / f2_total if f2_total else 0.0,
    )
