import numpy as np
import pytest

from fichad import embed
from fichad.embed import (EmbeddingModel, TrainConfig, TrainingError,
                          init_model, loss_gradients, negative_sample,
                          score_gradients, train)
from fichad.kg import KnowledgeGraph, Triple
from conftest import make_vocab, two_cluster_graph


def finite_difference_gradient(model, triple, positive, cfg, which,
                               eps=1e-5):
    """Central-difference gradient of the loss ``loss_gradients`` returns,
    w.r.t. one embedding row.

    Independent oracle: perturbs each real coordinate (real and imaginary
    parts separately for complex parameters) and differences the loss.
    """
    name, row = which
    arr = getattr(model, name)
    base = arr[row].copy()
    complex_ = np.iscomplexobj(arr)
    grad = np.zeros_like(base)
    units = (1.0, 1j) if complex_ else (1.0,)
    for i in range(base.size):
        for unit in units:
            v = base.copy()
            v[i] = base[i] + eps * unit
            arr[row] = v
            lp = loss_gradients(model, triple, positive, cfg)[0]
            v = base.copy()
            v[i] = base[i] - eps * unit
            arr[row] = v
            lm = loss_gradients(model, triple, positive, cfg)[0]
            arr[row] = base
            grad[i] += unit * (lp - lm) / (2 * eps)
    return grad


def rel_err(a, b):
    denom = max(np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom


class TestScore:
    def test_transe_exact_translation(self):
        m = EmbeddingModel("transe",
                           np.array([[0.3, 0.4], [0.4, 0.0]]),
                           np.array([[0.1, -0.4]]))
        assert m.score(0, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_distmult_direct_sum(self):
        m = EmbeddingModel("distmult",
                           np.array([[1.0, 2.0], [1.0, 1.0]]),
                           np.array([[1.0, 1.0]]))
        assert m.score(0, 0, 1) == pytest.approx(3.0)

    def test_complex_identity(self):
        e = np.array([[1.0 + 0.0j]])
        m = EmbeddingModel("complex", np.vstack([e, e]), e)
        assert m.score(0, 0, 1) == pytest.approx(1.0)

    def test_rotate_zero_rotation(self):
        e = np.array([[0.3 + 0.7j, -0.2 + 0.1j]])
        m = EmbeddingModel("rotate", np.vstack([e, e]),
                           np.zeros((1, 2)), margin=4.0)
        assert m.score(0, 0, 1) == pytest.approx(4.0)

    def test_batch_matches_single(self):
        for fam in embed.FAMILIES:
            m = init_model(fam, 7, 3, 6, seed=11)
            cands = np.arange(7)
            batch = m.score_tails(2, 1, cands)
            singles = [m.score(2, 1, int(t)) for t in cands]
            np.testing.assert_allclose(batch, singles, rtol=1e-12)

    @pytest.mark.parametrize("family,norm", [("transe", 1), ("transe", 2),
                                             ("distmult", 1), ("complex", 1),
                                             ("rotate", 1)])
    def test_blocks_equal_unblocked_scores(self, family, norm):
        n = 2 * embed.SCORE_BLOCK + 3
        m = init_model(family, n, 3, 5, seed=7, transe_norm=norm)
        perm = np.random.default_rng(1).permutation(n)
        h, r, t = 4, 2, n - 1
        eh, er, et = m.entity[h], m.relation[r], m.entity[t]
        for rows in (None, perm):
            cands = m.entity if rows is None else m.entity[rows]
            np.testing.assert_array_equal(m.score_tails(h, r, rows),
                                          m._score_vec(eh, er, cands))
            np.testing.assert_array_equal(m.score_heads(r, t, rows),
                                          m._score_vec(cands, er, et))

    def test_rotate_phase_2pi_invariance(self):
        m = init_model("rotate", 5, 2, 8, seed=4)
        before = m.score(0, 1, 3)
        m.relation[1, 2] += 2 * np.pi
        assert abs(m.score(0, 1, 3) - before) < 1e-9

    @pytest.mark.parametrize("family,norm", [("transe", 1), ("transe", 2),
                                             ("distmult", 1), ("complex", 1),
                                             ("rotate", 1)])
    def test_training_score_equals_eval_score(self, family, norm):
        """Training scores through ``score_gradients``, evaluation through
        ``score``; the two must agree bit for bit."""
        m = init_model(family, 6, 3, 5, seed=13, transe_norm=norm)
        for h, r, t in ((0, 0, 1), (2, 1, 5), (4, 2, 4)):
            assert score_gradients(m, Triple(h, r, t))[0] == m.score(h, r, t)

    def test_complex_all_real_equals_distmult(self):
        rng = np.random.default_rng(0)
        ent = rng.normal(size=(5, 6))
        rel = rng.normal(size=(2, 6))
        mc = EmbeddingModel("complex", ent.astype(complex), rel.astype(complex))
        md = EmbeddingModel("distmult", ent, rel)
        assert mc.score(1, 0, 3) == pytest.approx(md.score(1, 0, 3))


class TestGradients:
    @pytest.mark.parametrize("family", embed.FAMILIES)
    @pytest.mark.parametrize("loss", embed.LOSSES)
    @pytest.mark.parametrize("positive", [True, False])
    def test_matches_finite_differences(self, family, loss, positive):
        cfg = TrainConfig(family=family, dim=6, loss=loss,
                          l2=0.01 if loss == "logistic" else 0.0)
        for norm in (1, 2) if family == "transe" else (1,):
            rng = np.random.default_rng(42)
            m = init_model(family, 8, 3, 6, seed=9, transe_norm=norm)
            for _ in range(10):
                t = Triple(int(rng.integers(8)), int(rng.integers(3)),
                           int(rng.integers(8)))
                if t.head == t.tail:
                    continue
                _, dh, dr, dt = loss_gradients(m, t, positive, cfg)
                for analytic, which in ((dh, ("entity", t.head)),
                                        (dr, ("relation", t.relation)),
                                        (dt, ("entity", t.tail))):
                    fd = finite_difference_gradient(m, t, positive, cfg, which)
                    assert rel_err(analytic, fd) < 1e-4, norm

    def test_transe_zero_coordinate_subgradient(self):
        ent = np.array([[0.5, 0.2], [0.6, 0.9]])
        rel = np.array([[0.1, 0.3]])  # (h + r - t) = (0.0, -0.4)
        m = EmbeddingModel("transe", ent, rel)
        _, gh, _, _ = score_gradients(m, Triple(0, 0, 1))
        assert gh[0] == 0.0 and gh[1] != 0.0

    def test_distmult_logistic_saturation(self):
        cfg = TrainConfig(family="distmult", dim=2, loss="logistic", l2=0.0)
        big = 50.0
        m = EmbeddingModel("distmult", np.array([[big, big], [1.0, 1.0]]),
                           np.array([[1.0, 1.0]]))
        _, dh, dr, dt = loss_gradients(m, Triple(0, 0, 1), True, cfg)
        assert np.max(np.abs(np.concatenate([dh, dr, dt]))) < 1e-6


class TestNegativeSampling:
    def test_forced_candidate_on_two_entity_graph(self):
        ents = make_vocab(["a", "b"])
        rels = make_vocab(["r"])
        g = KnowledgeGraph(ents, rels,
                           {"train": [Triple(0, 0, 1)], "valid": [], "test": []})
        rng = np.random.default_rng(0)
        negs = negative_sample(Triple(0, 0, 1), g, rng, 8)
        assert len(negs) == 8
        assert not any(g.contains(n, "train") for n in negs)

    def test_forced_acceptance_on_one_entity_graph(self):
        """Every corruption collides; each is accepted after 100 attempts."""
        g = KnowledgeGraph(make_vocab(["a"]), make_vocab(["r"]),
                           {"train": [Triple(0, 0, 0)], "valid": [], "test": []})
        negs = negative_sample(Triple(0, 0, 0), g, np.random.default_rng(0), 5)
        assert negs == [Triple(0, 0, 0)] * 5

    def test_determinism(self):
        g = two_cluster_graph()
        t = g.splits["train"][0]
        a = negative_sample(t, g, np.random.default_rng(42), 4)
        b = negative_sample(t, g, np.random.default_rng(42), 4)
        assert a == b

    def test_replacement_histogram_uniform(self):
        """Chi-square over 10k corruptions on a 100-entity graph."""
        ents = make_vocab([f"e{i}" for i in range(100)])
        rels = make_vocab(["r"])
        g = KnowledgeGraph(ents, rels,
                           {"train": [Triple(0, 0, 1)], "valid": [], "test": []})
        rng = np.random.default_rng(7)
        counts = np.zeros(100)
        n = 10_000
        for neg in negative_sample(Triple(0, 0, 1), g, rng, n):
            replaced = neg.head if neg.tail == 1 and neg.head != 0 else neg.tail
            counts[replaced] += 1
        # the known triple's entities are slightly depressed by resampling;
        # exclude them and test uniformity of the rest
        mask = np.ones(100, dtype=bool)
        mask[[0, 1]] = False
        expected = counts[mask].sum() / mask.sum()
        chi2 = np.sum((counts[mask] - expected) ** 2 / expected)
        dof = mask.sum() - 1
        # 3 sigma for chi-square: mean dof, sd sqrt(2*dof)
        assert abs(chi2 - dof) < 3 * np.sqrt(2 * dof)


class TestTrain:
    def test_zero_epochs_returns_init(self):
        g = two_cluster_graph()
        cfg = TrainConfig(family="transe", dim=8, epochs=0, seed=5)
        m = train(cfg, g)
        m0 = init_model("transe", g.n_entities, g.n_relations, 8,
                        margin=cfg.margin, seed=5)
        np.testing.assert_array_equal(m.entity, m0.entity)
        np.testing.assert_array_equal(m.relation, m0.relation)

    def test_fixed_seed_bit_identical(self):
        g = two_cluster_graph()
        cfg = TrainConfig(family="distmult", dim=8, epochs=3, loss="logistic",
                          l2=0.001, seed=21)
        m1 = train(cfg, g)
        m2 = train(cfg, g)
        assert m1.entity.tobytes() == m2.entity.tobytes()
        assert m1.relation.tobytes() == m2.relation.tobytes()

    def test_empty_train_split_errors(self):
        ents = make_vocab(["a", "b"])
        rels = make_vocab(["r"])
        g = KnowledgeGraph(ents, rels, {"train": [], "valid": [],
                                        "test": [Triple(0, 0, 1)]})
        with pytest.raises(TrainingError):
            train(TrainConfig(), g)

    def test_parameters_stay_finite(self):
        g = two_cluster_graph()
        cfg = TrainConfig(family="rotate", dim=8, epochs=5, seed=2)
        m = train(cfg, g)
        assert np.all(np.isfinite(m.entity.view(np.float64)))
        assert np.all(np.isfinite(m.relation))
        # rotate phases stay wrapped
        assert np.all(m.relation >= -np.pi) and np.all(m.relation < np.pi)


class TestCheckpoint:
    @pytest.mark.parametrize("family", embed.FAMILIES)
    def test_round_trip(self, family, tmp_path):
        m = init_model(family, 6, 3, 5, margin=2.5, seed=77)
        p = tmp_path / "model.ckpt"
        m.save(p)
        loaded = EmbeddingModel.load(p)
        assert loaded.family == family
        assert loaded.margin == 2.5 and loaded.seed == 77
        np.testing.assert_array_equal(loaded.entity, m.entity)
        np.testing.assert_array_equal(loaded.relation, m.relation)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTAMODEL")
        with pytest.raises(ValueError):
            EmbeddingModel.load(p)

    @pytest.mark.parametrize("cut", ["after_magic", "in_header", "in_entity"])
    def test_truncated_checkpoint_rejected(self, tmp_path, cut):
        """A save interrupted mid-write leaves a short file behind."""
        p = tmp_path / "model.ckpt"
        init_model("complex", 6, 3, 5, seed=1).save(p)
        raw = p.read_bytes()
        body = len(embed._MAGIC) + 4 + int.from_bytes(raw[8:12], "little")
        keep = {"after_magic": len(embed._MAGIC), "in_header": body - 5,
                "in_entity": body + 8 * 6 * 5 + 3}[cut]
        p.write_bytes(raw[:keep])
        with pytest.raises(ValueError, match="truncated checkpoint") as exc:
            EmbeddingModel.load(p)
        assert str(p) in str(exc.value)
