import dataclasses
import json

import numpy as np
import pytest
import scipy.stats

from ontoembed import cli
from ontoembed import encoder as enc
from ontoembed import evalsuite as ev
from ontoembed import ontology as onto
from ontoembed import trainer

from conftest import write_jsonl, write_text
from oracles import (average_ranks_reference, brute_nli_accuracy, brute_topk_concepts,
                     rank_concepts_reference)


# ---------------------------------------------------------------------------
# pearson / spearman


def test_pearson_exact_linear():
    assert ev.pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-15)
    assert ev.pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_hand_value():
    assert ev.pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)


def test_pearson_errors():
    with pytest.raises(ev.ZeroVarianceError):
        ev.pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        ev.pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        ev.pearson([1], [2])


def test_spearman_monotone_sequences():
    assert ev.spearman([1, 5, 9], [2, 30, 31]) == pytest.approx(1.0, abs=1e-15)
    assert ev.spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)


def test_spearman_tie_hand_value():
    # ranks [1, 2.5, 2.5, 4] vs [1, 2, 3, 4]: pearson = 4.5 / sqrt(4.5 * 5)
    assert ev.spearman([1, 2, 2, 4], [1, 2, 3, 4]) == pytest.approx(
        0.9486832980505138, abs=1e-12)


def test_average_ranks_equal_the_tie_loop_bit_for_bit():
    rng = np.random.default_rng(2)
    for trial in range(400):
        n = int(rng.integers(1, 40))
        xs = [rng.integers(0, 5, size=n).astype(float), rng.normal(size=n),
              np.round(rng.normal(size=n), 1), rng.choice([0.0, -0.0, 1.0], size=n)][trial % 4]
        assert ev._average_ranks(xs).tobytes() == average_ranks_reference(xs).tobytes()


def test_correlations_match_scipy_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(3, 12))
        xs = rng.integers(0, 6, size=n).astype(float)  # integer data forces ties
        ys = rng.normal(size=n)
        if xs.max() == xs.min():
            continue
        assert ev.pearson(xs, ys) == pytest.approx(
            scipy.stats.pearsonr(xs, ys).statistic, abs=1e-12)
        assert ev.spearman(xs, ys) == pytest.approx(
            scipy.stats.spearmanr(xs, ys).statistic, abs=1e-12)


def test_correlations_symmetric_and_affine_invariant():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=20)
    ys = rng.normal(size=20)
    assert ev.pearson(xs, ys) == pytest.approx(ev.pearson(ys, xs), abs=1e-15)
    assert ev.pearson(3.0 * xs + 2.0, ys) == pytest.approx(ev.pearson(xs, ys), abs=1e-12)
    assert ev.spearman(xs, ys) == pytest.approx(ev.spearman(ys, xs), abs=1e-15)
    assert ev.spearman(3.0 * xs + 2.0, ys) == pytest.approx(ev.spearman(xs, ys), abs=1e-12)


def test_spearman_equals_pearson_on_distinct_ranks():
    xs = np.array([3.0, 1.0, 4.0, 2.0])
    ys = np.array([2.0, 1.0, 4.0, 3.0])
    # inputs are permutations of 1..n, i.e. already ranks
    assert ev.spearman(xs, ys) == pytest.approx(ev.pearson(xs, ys), abs=1e-15)


# ---------------------------------------------------------------------------
# dataset loading


def test_sts_loader_validates(tmp_path):
    path = write_text(tmp_path / "sts.tsv", "a\tb\t6.5\nc\td\t1\n")
    with pytest.raises(ev.DatasetError):
        ev.load_sts_dataset(path)
    path2 = write_text(tmp_path / "sts2.tsv", "a\tb\t2\n")
    with pytest.raises(ev.DatasetError):
        ev.load_sts_dataset(path2)  # fewer than 2 rows
    path3 = write_text(tmp_path / "sts3.tsv", "a\tb\t2\nc\td\t2\n")
    with pytest.raises(ev.DatasetError):
        ev.load_sts_dataset(path3)  # zero gold variance
    path4 = write_text(tmp_path / "sts4.tsv", "a\tb\tnot-a-number\nc\td\t2\n")
    with pytest.raises(ev.DatasetError):
        ev.load_sts_dataset(path4)


def test_bcr_loader_accepts_any_scale(tmp_path):
    path = write_text(tmp_path / "bcr.tsv", "a\tb\t-3.5\nc\td\t117\n")
    dataset = ev.load_bcr_dataset(path)
    assert dataset.rows[0][2] == -3.5
    # a NaN gold used to load and take a rank of its own
    for gold in ("nan", "inf"):
        path = write_text(tmp_path / "bcr.tsv", f"a\tb\t1\nc\td\t{gold}\n")
        with pytest.raises(ev.DatasetError, match=rf"bcr\.tsv:2: gold {gold} is not a finite"):
            ev.load_bcr_dataset(path)


@pytest.mark.parametrize("name, text, line_no", [
    ("nel", "a\tC1\n\tC2\n", 2),
    ("nel", "a\tC1\nb\t\n", 2),
    ("nli", "a\t\tc\n", 1),
], ids=["nel-empty-mention", "nel-empty-concept-id", "nli-empty-column"])
def test_nel_and_nli_loaders_name_the_line_of_an_empty_field(tmp_path, name, text, line_no):
    # an empty field used to be caught only once the whole file was read,
    # with a message that named the file but not the line
    path = write_text(tmp_path / f"{name}.tsv", text)
    load = {"nel": ev.load_nel_dataset, "nli": ev.load_nli_dataset}[name]
    with pytest.raises(ev.DatasetError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}:{line_no}: ")


# ---------------------------------------------------------------------------
# eval_sts / eval_bcr


def _model(seed=0):
    cfg = enc.EncoderConfig(vocab_buckets=128, embed_dim=8, hidden_dim=10,
                            output_dim=8, hash_seed=1, init_seed=seed)
    return enc.Checkpoint(config=cfg, phase="base", params=enc.init_params(cfg))


def test_eval_sts_degenerate_model_error():
    model = _model()
    rows = tuple((f"text {i}", f"text {i}", float(i % 6)) for i in range(6))
    dataset = ev.PairDataset(rows=rows)
    with pytest.raises(ev.DegenerateModelError):
        ev.eval_sts(model, dataset)


def test_eval_sts_matches_hand_pearson():
    model = _model()
    rows = (("alpha beta", "alpha beta", 5.0), ("alpha beta", "gamma delta", 1.0),
            ("epsilon", "zeta eta", 0.0), ("theta iota", "theta kappa", 3.0))
    dataset = ev.PairDataset(rows=rows)
    report = ev.eval_sts(model, dataset)
    cos = []
    for a, b, _ in rows:
        ea = enc.encode_batch(model.params, model.config, [a])[0]
        eb = enc.encode_batch(model.params, model.config, [b])[0]
        cos.append(float(ea @ eb))
    expected = scipy.stats.pearsonr(cos, [g for _, _, g in rows]).statistic
    assert report.value == pytest.approx(expected, abs=1e-12)
    assert report.benchmark == "sts" and report.metric == "pearson"
    assert report.n == 4
    assert -1.0 <= report.value <= 1.0


def test_eval_sts_gold_scale_invariance():
    model = _model()
    rows = (("alpha beta", "alpha beta", 2.5), ("alpha beta", "gamma delta", 0.5),
            ("epsilon", "zeta eta", 0.0), ("theta iota", "theta kappa", 1.5))
    base = ev.eval_sts(model, ev.PairDataset(rows=rows)).value
    doubled = ev.eval_sts(model, ev.PairDataset(
        rows=tuple((a, b, 2.0 * g) for a, b, g in rows))).value
    assert doubled == pytest.approx(base, abs=1e-12)


def test_eval_bcr_matches_independent_rank_pipeline():
    model = _model(3)
    rng = np.random.default_rng(5)
    words = ["flu", "ache", "rash", "cough", "chill", "fever", "sore", "numb",
             "dizzy", "weak"]
    rows = tuple((words[i], words[(i + 3) % 10] + " pain", float(rng.integers(0, 5)))
                 for i in range(10))
    dataset = ev.PairDataset(rows=rows)
    report = ev.eval_bcr(model, dataset)
    cos = []
    for a, b, _ in rows:
        ea = enc.encode_batch(model.params, model.config, [a])[0]
        eb = enc.encode_batch(model.params, model.config, [b])[0]
        cos.append(float(ea @ eb))
    expected = scipy.stats.spearmanr(cos, [g for _, _, g in rows]).statistic
    assert report.value == pytest.approx(expected, abs=1e-12)
    assert report.metric == "spearman"


def test_eval_bcr_monotone_fixtures():
    # plant embeddings through a model-free check of the metric itself: use
    # texts whose cosines are monotone with gold by construction
    model = _model(1)
    pairs = [("same same", "same same"), ("same same", "same other"),
             ("aaa bbb", "ccc ddd")]
    cos = []
    for a, b in pairs:
        ea = enc.encode_batch(model.params, model.config, [a])[0]
        eb = enc.encode_batch(model.params, model.config, [b])[0]
        cos.append(float(ea @ eb))
    order = np.argsort(cos)
    rows = tuple((pairs[i][0], pairs[i][1], float(rank))
                 for rank, i in enumerate(order))
    assert ev.eval_bcr(model, ev.PairDataset(rows=rows)).value == pytest.approx(1.0)
    rows_rev = tuple((pairs[i][0], pairs[i][1], float(-rank))
                     for rank, i in enumerate(order))
    assert ev.eval_bcr(model, ev.PairDataset(rows=rows_rev)).value == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# NEL


@pytest.fixture
def nel_kg(tmp_path):
    rows = [
        {"id": "c1", "names": ["apple pie", "sweet tart"]},
        {"id": "c2", "names": ["river bank", "water edge"]},
        {"id": "c3", "names": ["night sky", "star field"]},
    ]
    return onto.load_ontology(write_jsonl(tmp_path / "kg.jsonl", rows))


def test_nel_index_has_entry_per_name(nel_kg):
    model = _model()
    index = ev.build_nel_index(model, nel_kg)
    assert len(index.names) == 6
    assert index.embeddings.shape == (6, model.config.output_dim)


def test_nel_index_keeps_duplicate_surface_strings(tmp_path):
    rows = [
        {"id": "a", "names": ["shared name", "alpha"]},
        {"id": "b", "names": ["shared name"]},
    ]
    kg = onto.load_ontology(write_jsonl(tmp_path / "kg.jsonl", rows))
    index = ev.build_nel_index(_model(), kg)
    assert index.names.count("shared name") == 2


def test_nel_exact_synonym_match_is_top1(nel_kg):
    model = _model()
    dataset = ev.Dataset(rows=(("sweet tart", "c1"), ("star field", "c3"),
                                  ("water edge", "c2")))
    report = ev.eval_nel(model, nel_kg, dataset, [1])[0]
    assert report.value == 1.0


def test_nel_tie_goes_to_smaller_id(tmp_path):
    rows = [
        {"id": "b_big", "names": ["shared name"]},
        {"id": "a_small", "names": ["shared name"]},
    ]
    kg = onto.load_ontology(write_jsonl(tmp_path / "kg.jsonl", rows))
    model = _model()
    ok = ev.eval_nel(model, kg, ev.Dataset(rows=(("shared name", "a_small"),)), [1])[0]
    assert ok.value == 1.0
    lost = ev.eval_nel(model, kg, ev.Dataset(rows=(("shared name", "b_big"),)), [1])[0]
    assert lost.value == 0.0


def test_nel_shared_name_ties_wherever_its_rows_fall(tmp_path):
    # "shared name" is entry 0 and entry 4 of a 5-entry index. BLAS computes
    # the last n % 4 rows of a matrix-vector product with another kernel, so
    # two copies of one embedding scored an ulp apart for 6 of these 40
    # seeds, and z_big could outrank a_small
    rows = [
        {"id": "a_small", "names": ["shared name", "alpha"]},
        {"id": "m_mid", "names": ["beta", "gamma"]},
        {"id": "z_big", "names": ["shared name"]},
    ]
    kg = onto.load_ontology(write_jsonl(tmp_path / "kg.jsonl", rows))
    for seed in range(40):
        cfg = enc.EncoderConfig(vocab_buckets=64, embed_dim=8, hidden_dim=16, output_dim=96,
                                hash_seed=3, init_seed=seed)
        model = enc.Checkpoint(config=cfg, phase="base", params=enc.init_params(cfg))
        index = ev.build_nel_index(model, kg)
        assert index.names == ["shared name", "alpha", "beta", "gamma", "shared name"]
        assert len(index.embeddings) == 4
        for gold, hit in (("a_small", 1.0), ("z_big", 0.0)):
            dataset = ev.Dataset(rows=(("shared name", gold),))
            assert ev.eval_nel(model, kg, dataset, [1])[0].value == hit, seed


def test_nel_index_needs_one_embedding_per_distinct_name():
    with pytest.raises(ValueError, match="3 embeddings for 2 distinct names"):
        ev.NelIndex(embeddings=np.zeros((3, 2)), concept_ids=["a", "b", "b"],
                    names=["x", "y", "x"])


def test_nel_matches_brute_force_ranking(small_kg, small_datasets):
    model = _model(7)
    dataset = small_datasets["nel"]
    name_embeddings = []
    for cid in small_kg.concept_ids:
        for name in small_kg.get(cid).names:
            name_embeddings.append(
                (cid, enc.encode_batch(model.params, model.config, [name])[0]))
    for k in (1, 5):
        report = ev.eval_nel(model, small_kg, dataset, [k])[0]
        hits = 0
        for mention, gold in dataset.rows:
            memb = enc.encode_batch(model.params, model.config, [mention])[0]
            if gold in brute_topk_concepts(name_embeddings, memb, k):
                hits += 1
        assert report.value == pytest.approx(hits / len(dataset.rows), abs=1e-12)


def test_nel_topk_monotone_in_k(small_kg, small_datasets):
    model = _model(2)
    reports = ev.eval_nel(model, small_kg, small_datasets["nel"], [1, 3, 10])
    values = [r.value for r in reports]
    assert values == sorted(values)


def test_nel_unresolvable_gold_id(nel_kg):
    with pytest.raises(ev.EvalError):
        ev.eval_nel(_model(), nel_kg, ev.Dataset(rows=(("x", "zzz"),)), [1])


class _FixedScores:
    """Stands in for an index's embedding matrix in ``rank_concepts_reference``:
    ``@`` returns set scores, so a test can choose them exactly, signed zeros
    included."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)

    def __len__(self):
        return len(self.scores)

    def __matmul__(self, mention):
        return self.scores.copy()


# concept ids that are not contiguous, with each concept's rows scattered
_SCATTERED_IDS = ["c07", "c02", "c07", "c13", "c02", "c40", "c13", "c40", "c02", "c100"]


def _count_places(best):
    """places[i, j]: ``_gold_ranks`` of column j in row i of ``best``."""
    return np.stack([ev._gold_ranks(best, np.full(len(best), j)) for j in range(best.shape[1])],
                    axis=1)


def _index_places(index, mentions):
    """places[i, j]: the count-rank of ``index.concepts[j]`` for mention i, over
    the blocks ``eval_nel`` scores."""
    return np.concatenate([_count_places(best) for _, best in ev._best_scores(index, mentions)])


def _reference_places(index, mention):
    ranking = rank_concepts_reference(index, mention)
    return [ranking.index(cid) for cid in index.concepts]


def test_gold_ranks_match_dict_loop_on_exact_and_signed_zero_ties():
    rng = np.random.default_rng(21)
    names = [f"n{i}" for i in range(len(_SCATTERED_IDS))]
    rows = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(300, len(_SCATTERED_IDS)))
    shape = ev.NelIndex(embeddings=np.zeros((len(names), 1)), concept_ids=_SCATTERED_IDS,
                        names=names)
    # best-score rows, one per score row, go to the counting step directly
    places = _count_places(rows[:, shape.slots].max(axis=2))
    for scores, got in zip(rows, places):
        index = ev.NelIndex(embeddings=_FixedScores(scores), concept_ids=_SCATTERED_IDS,
                            names=names)
        assert got.tolist() == _reference_places(index, None)
    # columns w, x, y, z: signed zeros tie, so the smaller column ranks first
    best = np.array([[-0.0, 0.0, 0.0, -0.0], [0.0, -0.0, -0.0, 0.0]])
    assert _count_places(best).tolist() == [[0, 1, 2, 3], [0, 1, 2, 3]]
    ties = ev.NelIndex(embeddings=_FixedScores([-0.0, 0.0, 0.0, -0.0]),
                       concept_ids=["z", "y", "x", "w"], names=["a", "b", "c", "d"])
    assert _reference_places(ties, None) == [0, 1, 2, 3]


def test_gold_ranks_match_dict_loop_on_real_scores():
    rng = np.random.default_rng(22)
    # grid vectors give exact dot products, so ties survive any summation order
    grid = rng.choice([-1.0, 0.0, 1.0], size=(len(_SCATTERED_IDS), 4))
    index = ev.NelIndex(embeddings=grid, concept_ids=_SCATTERED_IDS,
                        names=[f"n{i}" for i in range(len(_SCATTERED_IDS))])
    # 200 mentions span a full block and a partial one
    mentions = rng.choice([-1.0, 0.0, 1.0], size=(200, 4))
    for mention, got in zip(mentions, _index_places(index, mentions)):
        assert got.tolist() == _reference_places(index, mention)
    # one surface string shared by several concepts ties them exactly
    model = _model()
    names = ["shared name", "alpha", "shared name", "beta gamma", "shared name", "delta"]
    index = ev.NelIndex(embeddings=enc.encode_batch(model.params, model.config,
                                                    list(dict.fromkeys(names))),
                        concept_ids=["k9", "k1", "k1", "k5", "k30", "k5"], names=names)
    mentions = enc.encode_batch(model.params, model.config,
                                ["shared name", "alpha", "beta", "name", ""])
    places = _index_places(index, mentions)
    for mention, got in zip(mentions, places):
        assert got.tolist() == _reference_places(index, mention)
    place = dict(zip(index.concepts, places[0]))
    assert [place["k1"], place["k30"], place["k9"]] == [0, 1, 2]


@pytest.fixture(scope="module")
def trained_nel(small_kg):
    """A briefly trained contrastive model and 2 * NEL_BLOCK + 1 mentions:
    names and definitions of the graph with an extra word, each linked to its
    own concept or, one time in three, to a random one."""
    corpus = onto.build_corpus(small_kg, 2, 11)
    cfg = enc.EncoderConfig(vocab_buckets=512, embed_dim=16, hidden_dim=24, output_dim=24,
                            hash_seed=5, init_seed=2)
    base = enc.Checkpoint(config=cfg, phase="base", params=enc.init_params(cfg))
    model, _ = trainer.train_contrastive(
        base, corpus, trainer.TrainConfig(learning_rate=4e-3, epochs=2, batch_size=64, seed=0))
    rng = np.random.default_rng(24)
    ids = small_kg.concept_ids
    rows = []
    for i in range(2 * ev.NEL_BLOCK + 1):
        concept = small_kg.get(ids[i % len(ids)])
        text = rng.choice(list(concept.names) + [d.text for d in concept.definitions])
        gold = concept.id if rng.random() < 2 / 3 else ids[int(rng.integers(len(ids)))]
        rows.append((f"{text} {rng.choice(['acute', 'left', 'of', 'type'])}", gold))
    return model, ev.Dataset(rows=tuple(rows))


def test_nel_over_several_blocks_matches_dict_loop(small_kg, trained_nel):
    model, dataset = trained_nel
    index = ev.build_nel_index(model, small_kg)
    mentions = enc.encode_batch(model.params, model.config, [m for m, _ in dataset.rows])
    hits = {1: 0, 3: 0, 10: 0}
    for mention, (_, gold) in zip(mentions, dataset.rows):
        ranking = rank_concepts_reference(index, mention)
        for k in hits:
            hits[k] += gold in ranking[:k]
    reports = ev.eval_nel(model, small_kg, dataset, [10, 1, 3])
    n = len(dataset.rows)
    assert [(r.metric, r.value, r.n) for r in reports] == [
        (f"top{k}_accuracy", hits[k] / n, n) for k in (1, 3, 10)]
    assert 0 < hits[1] < hits[10] < n


def test_nel_best_scores_do_not_depend_on_the_block(small_kg, trained_nel):
    # each mention is one row of a gemm whose rows and columns are padded to
    # a multiple of 8, so its best scores round the same alone and in any
    # block, and equal the slot max over its own product
    model, dataset = trained_nel
    index = ev.build_nel_index(model, small_kg)
    n = len(index.embeddings)
    assert index.columns.shape == (model.config.output_dim, n + -n % 8) and n % 8
    assert (index.columns[:, :n] == index.embeddings.T).all() and not index.columns[:, n:].any()
    mentions = enc.encode_batch(model.params, model.config, [m for m, _ in dataset.rows])
    alone = np.array([next(ev._best_scores(index, m[None, :]))[1][0] for m in mentions])
    for mention, row in zip(mentions, alone):
        product = enc._matmul_rows(mention[None, :], index.columns)[0]
        assert row.tobytes() == product[index.slots].max(axis=1).tobytes()
    for size in range(1, len(mentions) + 1):
        for start in range(0, len(mentions), size):
            firsts = []
            for first, best in ev._best_scores(index, mentions[start:start + size]):
                firsts.append(first)
                assert best.tobytes() == alone[start + first:start + first + len(best)].tobytes()
            assert firsts == list(range(0, min(size, len(mentions) - start), ev.NEL_BLOCK))
    assert len(mentions) == 2 * ev.NEL_BLOCK + 1


def test_nel_token_swapped_names_tie_wherever_their_rows_fall():
    # "alpha beta" and "beta alpha" pool the same tokens, so their embeddings
    # are equal bit for bit, and so must their scores be. One of the two is
    # in the last n % 8 rows of a 333-name index: a matrix-vector product
    # computes the last n % 4 rows with another kernel, and a gemm over
    # unpadded columns its last columns, so either scored the copy an ulp
    # apart for some mentions and ranked the two concepts by row, not by id
    cfg = enc.EncoderConfig(vocab_buckets=64, embed_dim=8, hidden_dim=16, output_dim=96,
                            hash_seed=3, init_seed=0)
    model = enc.Checkpoint(config=cfg, phase="base", params=enc.init_params(cfg))
    fillers = [f"filler {i}" for i in range(331)]
    n = len(fillers) + 2
    mentions = np.random.default_rng(32).normal(size=(ev.NEL_BLOCK, cfg.output_dim))
    mentions /= np.linalg.norm(mentions, axis=1, keepdims=True)
    ids = {"alpha beta": "k_a", "beta alpha": "k_b"}
    for tail_row in range(n - n % 8, n):
        for other_row in (0, n // 2, n - n % 8 - 1):
            for pair in (["alpha beta", "beta alpha"], ["beta alpha", "alpha beta"]):
                names = list(fillers)
                for row, name in sorted(zip((other_row, tail_row), pair)):
                    names.insert(row, name)
                embeddings = enc.encode_batch(model.params, model.config, names)
                assert embeddings[tail_row].tobytes() == embeddings[other_row].tobytes()
                index = ev.NelIndex(embeddings=embeddings, names=names,
                                    concept_ids=[ids.get(name, name) for name in names])
                a = list(index.concepts).index("k_a")
                assert index.concepts[a + 1] == "k_b"
                [(_, best)] = ev._best_scores(index, mentions)
                layout = (tail_row, other_row, pair)
                assert best[:, a].tobytes() == best[:, a + 1].tobytes(), layout
                ranks = [ev._gold_ranks(best, np.full(len(best), j)) for j in (a, a + 1)]
                assert (ranks[1] == ranks[0] + 1).all(), layout


# ---------------------------------------------------------------------------
# NLI triplets


def test_nli_anchor_equals_entailed_wins():
    model = _model()
    rows = (("alpha beta", "alpha beta", "gamma delta"),)
    assert ev.eval_nli_triplets(model, ev.Dataset(rows=rows)).value == 1.0


def test_nli_tie_counts_as_failure():
    model = _model()
    rows = (("alpha beta", "same text", "same text"),)
    assert ev.eval_nli_triplets(model, ev.Dataset(rows=rows)).value == 0.0


def test_nli_matches_scripted_oracle():
    model = _model(4)
    words = ["ache", "burn", "chill", "daze", "edge", "flux", "glow", "haze"]
    rows = tuple((words[i] + " one", words[(i + 1) % 8] + " two",
                  words[(i + 3) % 8] + " three") for i in range(8))
    dataset = ev.Dataset(rows=rows)
    report = ev.eval_nli_triplets(model, dataset)
    triples = []
    for a, e, c in rows:
        triples.append((enc.encode_batch(model.params, model.config, [a])[0],
                        enc.encode_batch(model.params, model.config, [e])[0],
                        enc.encode_batch(model.params, model.config, [c])[0]))
    assert report.value == pytest.approx(brute_nli_accuracy(triples), abs=1e-15)


# ---------------------------------------------------------------------------
# read-only contract and digests


def test_evaluations_are_read_only(small_kg, small_datasets):
    model = _model(5)
    before_model = ev.model_digest(model)
    before_concepts, before_templates = small_kg.concepts(), small_kg.templates
    ev.eval_sts(model, small_datasets["sts_test"])
    ev.eval_bcr(model, small_datasets["bcr"])
    ev.eval_nel(model, small_kg, small_datasets["nel"], [1, 5])
    ev.eval_nli_triplets(model, small_datasets["nli"])
    assert ev.model_digest(model) == before_model
    assert small_kg.concepts() == before_concepts
    assert small_kg.templates == before_templates


def test_report_json_shape(tmp_path, capsys):
    # a report line is written only by ``eval``, which adds the digests
    model = _model()
    enc.save_checkpoint(tmp_path / "m.ckpt", model)
    data = write_text(tmp_path / "sts.tsv",
                      "alpha beta\talpha beta\t5.0\nalpha beta\tgamma delta\t1.0\n"
                      "epsilon\tzeta eta\t0.0\n")
    out = tmp_path / "report.jsonl"
    assert cli.main(["eval", "sts", "--model", str(tmp_path / "m.ckpt"), "--data", data,
                     "--out", str(out)]) == 0
    [line] = out.read_text().splitlines()
    assert capsys.readouterr().out == line + "\n"
    payload = json.loads(line)
    assert set(payload) == {"benchmark", "metric", "value", "n",
                            "model_digest", "data_digest"}
    dataset = ev.load_sts_dataset(data)
    assert {**payload, "model_digest": None, "data_digest": None} == {
        **dataclasses.asdict(ev.eval_sts(model, dataset)),
        "model_digest": None, "data_digest": None}
    assert payload["model_digest"] == ev.model_digest(model)
    assert payload["data_digest"] == ev.data_digest(dataset.rows)
