package repro.ml

import org.scalatest.funsuite.AnyFunSuite

class TaggersSpec extends AnyFunSuite {

  // simple BIO task: tag the adjective+noun span, skip stops & decorations
  private val data: Seq[(Seq[String], Seq[Int], Set[String])] = Seq(
    (Seq("what", "are", "the", "famous", "runner"), Seq(0, 0, 0, 1, 2), Set.empty),
    (Seq("review", "classic", "sitcom"), Seq(0, 1, 2), Set.empty),
    (Seq("the", "luxury", "suv"), Seq(0, 1, 2), Set.empty),
    (Seq("guide", "cheap", "phone"), Seq(0, 1, 2), Set.empty),
    (Seq("which", "are", "popular", "band"), Seq(0, 0, 1, 2), Set.empty),
    (Seq("overview", "modern", "novel"), Seq(0, 1, 2), Set.empty))

  test("CRF learns the adjective+noun span and generalizes") {
    val crf = new CRFTagger(3)
    crf.train(data)
    assert(crf.predict(Seq("what", "are", "the", "vintage", "bakery")) == Seq(0, 0, 0, 1, 2))
    assert(crf.predict(Seq("ranking", "iconic", "resort")) == Seq(0, 1, 2))
  }

  test("CRF predict on empty sequence") {
    val crf = new CRFTagger(3)
    crf.train(data)
    assert(crf.predict(Seq.empty) == Seq.empty)
  }

  test("softmax tagger learns per-token decisions") {
    val t = new SoftmaxTagger(3)
    t.train(data)
    val pred = t.predict(Seq("the", "vintage", "bakery"))
    assert(pred(1) != 0 && pred(2) != 0)
    assert(pred(0) == 0)
  }

  test("CRF transitions discourage I without B") {
    val crf = new CRFTagger(3)
    crf.train(data)
    // every predicted I (2) must follow B (1) or I
    for (toks <- Seq(Seq("acclaimed", "fund"), Seq("what", "rare", "trilogy"))) {
      val p = crf.predict(toks)
      for (i <- p.indices if p(i) == 2)
        assert(i > 0 && (p(i - 1) == 1 || p(i - 1) == 2), s"$toks -> $p")
    }
  }

  test("context feature is available to the featurizer") {
    val f = TagFeatures.featurize(Seq("famous", "runner"), 0, Set("famous"))
    assert(f.contains("inctx"))
    val f2 = TagFeatures.featurize(Seq("famous", "runner"), 1, Set("famous"))
    assert(!f2.contains("inctx"))
  }

  test("taggers are deterministic given the seed") {
    val a = new CRFTagger(3); a.train(data)
    val b = new CRFTagger(3); b.train(data)
    val toks = Seq("the", "underrated", "airline")
    assert(a.predict(toks) == b.predict(toks))
  }
}

class LogRegSpec extends AnyFunSuite {

  test("separates a linearly separable set") {
    val data = (0 until 50).map { i =>
      val x = i / 50.0
      (Array(x, 1 - x), x > 0.5)
    }
    val m = LogReg.train(data)
    assert(m.predict(Array(0.9, 0.1)))
    assert(!m.predict(Array(0.1, 0.9)))
  }

  test("scores are probabilities") {
    val m = LogReg.train(Seq((Array(1.0), true), (Array(0.0), false)))
    val s = m.score(Array(0.5))
    assert(s > 0 && s < 1)
  }

  test("training is deterministic") {
    val data = Seq((Array(1.0, 0.0), true), (Array(0.0, 1.0), false))
    val a = LogReg.train(data); val b = LogReg.train(data)
    assert(a.w.toSeq == b.w.toSeq && a.b == b.b)
  }
}

class EmbeddingsSpec extends AnyFunSuite {

  test("positives end closer than random negatives") {
    val ids = (1L to 20L).toSeq
    val pos = Seq((1L, 2L), (3L, 4L), (5L, 6L))
    val m = Embeddings.train(ids, pos)
    for ((a, b) <- pos) {
      val dPos = m.distance(a, b)
      val dNeg = m.distance(a, 15L)
      assert(dPos < dNeg, s"pair ($a,$b): $dPos !< $dNeg")
    }
  }

  test("distance to an unknown id is infinite") {
    val m = Embeddings.train(Seq(1L, 2L), Seq((1L, 2L)))
    assert(m.distance(1L, 99L).isInfinity)
  }
}
