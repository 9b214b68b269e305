import random

import pytest

from fichad.backend import BackendError, CapabilityError, MockBackend
from fichad.context import (DEFAULT_TEMPLATES, ContextGenerator,
                            GeneratedContext, ScoredImage, TemplateError,
                            _filter_steps, _lamm_steps, _summary_steps,
                            corpus_stats, instantiate, load_templates,
                            read_context_store, run_waves,
                            sample_relation_triples, write_context_store,
                            V1, V2, V1X, V1Y)
from fichad.kg import KnowledgeGraph, MultimodalAssets, Triple, first_sentence
from conftest import ScriptedBackend, make_vocab


class TestTemplates:
    def test_instantiate_fills_slots(self):
        assert instantiate("hi {name}", name="x") == "hi x"

    def test_missing_slot_is_error(self):
        with pytest.raises(TemplateError, match="name"):
            instantiate("hi {name}")

    def test_missing_slot_is_error_on_every_call(self):
        """The parsed slots are memoized; the check against the given
        slots is not."""
        template = "hi {name} from {place}"
        assert instantiate(template, name="x", place="y") == "hi x from y"
        for _ in range(3):
            with pytest.raises(TemplateError, match="place"):
                instantiate(template, name="x")

    def test_malformed_override_fails_every_load(self, tmp_path):
        """A template that does not parse is not memoized: each load of the
        directory raises again."""
        (tmp_path / "relevance.txt").write_text("Is {head with {tail}?\n")
        for _ in range(3):
            with pytest.raises(TemplateError, match="malformed template"):
                load_templates(tmp_path)

    def test_load_dir_overrides_defaults(self, tmp_path):
        default = DEFAULT_TEMPLATES["relevance"]
        (tmp_path / "relevance.txt").write_text("custom {head} {tail}\n")
        ts = load_templates(tmp_path)
        assert ts["relevance"] == "custom {head} {tail}"
        assert ts["entity_summary"] == DEFAULT_TEMPLATES["entity_summary"]
        assert DEFAULT_TEMPLATES["relevance"] == default


def filter_one(refs, tau, backend):
    """(head, tail, skipped) of one pair whose head has ``refs``."""
    [result] = run_waves([_filter_steps("H", "T", refs, [], tau,
                                        DEFAULT_TEMPLATES)], backend)
    return result


def lamm_one(head, tail, filtered_head, filtered_tail, backend):
    [result] = run_waves([_lamm_steps(head, tail, filtered_head,
                                      filtered_tail, DEFAULT_TEMPLATES)],
                         backend)
    return result


class TestFilterImages:
    def test_threshold_and_example_scores(self):
        bk = ScriptedBackend(scores={"i1": 0.9, "i2": 0.86, "i3": 0.2})
        fh, ft, skipped = filter_one(["i1", "i2", "i3"], 0.85, bk)
        assert [s.ref for s in fh] == ["i1", "i2"]
        assert ft == [] and skipped == 0

    def test_cap_at_five(self):
        refs = [f"i{j}" for j in range(7)]
        bk = ScriptedBackend(scores={r: 0.9 for r in refs})
        fh, _, _ = filter_one(refs, 0.85, bk)
        assert len(fh) == 5
        # ties broken by manifest order
        assert [s.ref for s in fh] == refs[:5]

    def test_failed_image_scores_zero_and_capability_error_raises(self):
        bk = ScriptedBackend(scores={"i1": 0.9, "i2": BackendError("503")})
        fh, _, skipped = filter_one(["i1", "i2"], 0.0, bk)
        assert [(s.ref, s.score) for s in fh] == [("i1", 0.9), ("i2", 0.0)]
        assert skipped == 1
        bk = ScriptedBackend(scores={"i1": CapabilityError("no logprobs")})
        with pytest.raises(CapabilityError):
            filter_one(["i1"], 0.85, bk)

    def test_all_below_threshold_gives_empty(self):
        bk = ScriptedBackend(scores={"i1": 0.1, "i2": 0.5})
        fh, _, _ = filter_one(["i1", "i2"], 0.85, bk)
        assert fh == []

    def test_threshold_monotonicity_over_random_vectors(self):
        """Raising tau never enlarges any filtered set (1000 random vectors)."""
        rng = random.Random(11)
        for _ in range(1000):
            n = rng.randint(0, 10)
            scores = {f"i{j}": rng.random() for j in range(n)}
            bk = ScriptedBackend(scores=scores)
            refs = list(scores)
            tau_lo, tau_hi = sorted((rng.random(), rng.random()))
            lo, _, _ = filter_one(refs, tau_lo, bk)
            hi, _, _ = filter_one(refs, tau_hi, bk)
            assert {s.ref for s in hi} <= {s.ref for s in lo}
            assert all(s.score >= tau_hi for s in hi)
            assert len(hi) <= 5 and {s.ref for s in hi} <= set(refs)

    def test_invalid_tau_rejected(self, arles):
        for tau in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="tau"):
                ContextGenerator(arles.graph, arles.assets, ScriptedBackend(),
                                 tau=tau)


class TestLammContext:
    def test_both_sides_present_names_both(self):
        bk = MockBackend(0)
        text, used, fallback = lamm_one(
            "View of Arles", "Vincent van Gogh",
            [ScoredImage("a.jpg", 0.9)], [ScoredImage("b.jpg", 0.88)], bk)
        assert not fallback
        assert "View of Arles" in text and "Vincent van Gogh" in text
        assert len(used) == 2

    def test_empty_side_falls_back_with_names(self):
        bk = MockBackend(0)
        text, used, fallback = lamm_one("A", "B", [], [ScoredImage("x", 0.9)],
                                        bk)
        assert fallback and used == []
        assert "A" in text and "B" in text

    def test_mock_determinism(self):
        args = ("H", "T", [ScoredImage("a", 0.9)], [ScoredImage("b", 0.9)])
        t1, _, _ = lamm_one(*args, MockBackend(7))
        t2, _, _ = lamm_one(*args, MockBackend(7))
        assert t1 == t2


class TestEntitySummary:
    def test_with_images(self):
        [(text, fallback)] = run_waves([_summary_steps(
            "Arles", ["i1", "i2"], DEFAULT_TEMPLATES)], MockBackend(0))
        assert not fallback and "Arles" in text

    def test_without_images_falls_back(self):
        [(text, fallback)] = run_waves([_summary_steps(
            "Arles", [], DEFAULT_TEMPLATES)], MockBackend(0))
        assert fallback and "Arles" in text


def hint_graph():
    ents = make_vocab([f"e{i}" for i in range(10)])
    rels = make_vocab(["depict", "rare", "empty"])
    train = [Triple(i, 0, (i + 1) % 10) for i in range(10)]
    train += [Triple(i, 1, (i + 2) % 10) for i in range(7)]
    return KnowledgeGraph(ents, rels, {"train": train, "valid": [], "test": []})


def imageless(graph, backend, **kwargs):
    """A generator over ``graph`` whose entities have no image."""
    return ContextGenerator(graph, MultimodalAssets(image_cap=1), backend,
                            **kwargs)


class TestConceptualHint:
    def test_min_rule_uses_all_available(self):
        g = hint_graph()
        sampled = sample_relation_triples(g, 1, n=20, seed=0)
        assert len(sampled) == 7

    def test_sample_draws_from_the_sorted_relation_pool(self):
        g = hint_graph()
        pool = sorted(t for t in g.triples("train") if t.relation == 0)
        for seed in range(20):
            picked = random.Random(f"{seed}:0").sample(range(len(pool)), 4)
            got = sample_relation_triples(g, 0, n=4, seed=seed)
            assert got == [pool[i] for i in sorted(picked)]
            assert all(type(t) is Triple
                       and all(type(v) is int for v in t) for t in got)

    def test_sampling_deterministic(self):
        g = hint_graph()
        a = sample_relation_triples(g, 0, n=5, seed=3)
        b = sample_relation_triples(g, 0, n=5, seed=3)
        assert a == b
        assert len(a) == 5

    def test_hint_text_deterministic_and_flagging(self):
        g = hint_graph()
        t1, f1 = next(imageless(g, MockBackend(1), seed=4).hints([(0, 0)]))
        t2, f2 = next(imageless(g, MockBackend(1), seed=4).hints([(0, 0)]))
        assert t1 == t2 and not f1
        _, flagged = next(imageless(g, MockBackend(1)).hints([(0, 2)]))
        assert flagged


def template_one(graph, relation, backend):
    gen = imageless(graph, backend)
    [text] = run_waves([gen._template_steps(relation)], backend)
    return text


class TestRelationTemplate:
    def test_invalid_output_falls_back_to_literal(self):
        g = hint_graph()
        bk = ScriptedBackend(texts=["no placeholders", "still none"])
        assert template_one(g, 0, bk) == "[A] depict [B]"

    def test_valid_output_accepted(self):
        g = hint_graph()
        bk = ScriptedBackend(texts=["Painting [A] depict object [B]."])
        assert template_one(g, 0, bk) == "Painting [A] depict object [B]."

    def test_double_slot_rejected(self):
        g = hint_graph()
        bk = ScriptedBackend(texts=["[A] [A] and [B]", "[A] [B] [B]"])
        assert template_one(g, 0, bk) == "[A] depict [B]"


class TestComposition:
    """The +x and +y variants extend the fichad-1 text of the same triple."""

    def contexts(self, arles, variant):
        gen = ContextGenerator(arles.graph, arles.assets, MockBackend(5),
                               tau=0.3)
        return gen, gen.generate_for_splits(variant)

    def test_v1x_appends_description_first_sentence(self, arles):
        _, plain = self.contexts(arles, V1)
        _, extended = self.contexts(arles, V1X)
        ent = arles.graph.entities
        appended = 0
        for base, ctx in zip(plain, extended, strict=True):
            desc = arles.assets.description(ent.id_of(ctx.subject["head"]))
            if desc is not None:
                assert ctx.text == f"{base.text} {first_sentence(desc)}"
                appended += 1
        assert appended > 0

    def test_v1x_without_description_is_counted(self, arles):
        _, plain = self.contexts(arles, V1)
        gen, extended = self.contexts(arles, V1X)
        ent = arles.graph.entities
        bare = [(base, ctx) for base, ctx in zip(plain, extended, strict=True)
                if arles.assets.description(
                    ent.id_of(ctx.subject["head"])) is None]
        assert bare and all(b.text == c.text for b, c in bare)
        assert gen.degraded_compositions == len(bare)

    def test_v1y_appends_hint(self, arles):
        _, plain = self.contexts(arles, V1)
        gen, extended = self.contexts(arles, V1Y)
        ent, rel = arles.graph.entities, arles.graph.relations
        pairs = [(ent.id_of(ctx.subject["head"]),
                  rel.id_of(ctx.subject["relation"])) for ctx in extended]
        for base, ctx, (hint, _) in zip(plain, extended, gen.hints(pairs),
                                        strict=True):
            assert ctx.text == f"{base.text} {hint}"
        assert gen.degraded_compositions == 0

    @pytest.mark.parametrize("splits", [(), ("test",)],
                             ids=["no-split", "test"])
    def test_unknown_variant_rejected(self, arles, splits):
        """Whether or not the splits hold a triple to generate."""
        gen = ContextGenerator(arles.graph, arles.assets, MockBackend(5))
        with pytest.raises(ValueError, match="'fichad-3'"):
            gen.generate_for_splits("fichad-3", splits=splits)


class TestPipeline:
    def test_generator_byte_reproducible(self, arles):
        def run():
            gen = ContextGenerator(arles.graph, arles.assets, MockBackend(7),
                                   seed=7)
            ctxs = gen.generate_for_splits(V1, splits=("train", "test"))
            return "\n".join(c.to_json_line() for c in ctxs)
        assert run() == run()

    def test_store_round_trip(self, arles, tmp_path):
        gen = ContextGenerator(arles.graph, arles.assets, MockBackend(7))
        ctxs = gen.generate_for_splits(V2)
        p = tmp_path / "ctx.jsonl"
        write_context_store(p, ctxs)
        again = read_context_store(p)
        assert [c.to_json_line() for c in again] == \
               [c.to_json_line() for c in ctxs]

    def test_fichad1_invariant_images_or_fallback(self, arles):
        gen = ContextGenerator(arles.graph, arles.assets, MockBackend(3),
                               tau=0.5)
        for ctx in gen.generate_for_splits(V1, splits=("train",)):
            if ctx.fallback:
                assert ctx.images == []
            else:
                assert ctx.images and all(s.score >= 0.5 for s in ctx.images)


class TestCorpusStats:
    def subject(self, g, h, r, t):
        return {"kind": "triple", "head": g.entities.label_of(h),
                "relation": g.relations.label_of(r),
                "tail": g.entities.label_of(t)}

    def test_both_entity_coverage_two_of_three(self, arles):
        g, assets = arles.graph, arles.assets
        ent = g.entities
        voa, vg, ar = ent.id_of("view_of_arles"), ent.id_of("van_gogh"), \
            ent.id_of("arles")
        ctxs = [
            GeneratedContext(V1, self.subject(g, voa, 0, vg),
                             "View of Arles was painted by Vincent van Gogh.",
                             images=[ScoredImage("x", 0.9)]),
            GeneratedContext(V1, self.subject(g, voa, 1, ar),
                             "View of Arles shows the city of Arles.",
                             images=[ScoredImage("x", 0.9)]),
            GeneratedContext(V1, self.subject(g, voa, 0, vg),
                             "A painting and its painter.",
                             images=[ScoredImage("x", 0.9)]),
        ]
        stats = corpus_stats(ctxs, g, assets)
        assert stats.both_entity_coverage == pytest.approx(2 / 3)
        assert stats.single_entity_coverage == pytest.approx(2 / 3)
        assert stats.triples_with_fichad1 == 3
        assert stats.with_fichad1 == 3  # voa, vg, arles

    def test_fallbacks_excluded_from_counts(self, arles):
        g = arles.graph
        ctxs = [GeneratedContext(V1, self.subject(g, 0, 0, 1), "text",
                                 fallback=True)]
        stats = corpus_stats(ctxs, g, arles.assets)
        assert stats.with_fichad1 == 0 and stats.triples_with_fichad1 == 0

    def test_chain_invariant_on_mock_run(self, arles):
        gen = ContextGenerator(arles.graph, arles.assets, MockBackend(7),
                               tau=0.3)
        ctxs = gen.generate_for_splits(V1, splits=("train", "valid", "test"))
        ctxs += gen.generate_for_splits(V2)
        stats = corpus_stats(ctxs, arles.graph, arles.assets)
        assert stats.with_fichad1 <= stats.with_images <= stats.n_entities

    def test_fichad2_full_coverage_when_texts_name_entities(self, arles):
        gen = ContextGenerator(arles.graph, arles.assets, MockBackend(7))
        ctxs = [c for c in gen.generate_for_splits(V2) if not c.fallback]
        stats = corpus_stats(ctxs, arles.graph, arles.assets)
        assert stats.fichad2_entity_coverage == pytest.approx(1.0)
