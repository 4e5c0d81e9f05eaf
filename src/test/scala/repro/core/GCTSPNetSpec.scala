package repro.core

import repro.SparkSpec
import repro.TestSyntax._
import repro.data.{ClickLogGen, OntoGen}
import repro.eval.{Datasets, Metrics}
import repro.graph.QTIG
import repro.ml.RGCNTrainer

class GCTSPNetSpec extends SparkSpec {

  private lazy val onto = OntoGen.generate(OntoGen.Params(nDerivedConcepts = 60, nEvents = 40, seed = 8))
  private lazy val log = ClickLogGen.generate(spark, onto, ClickLogGen.Params(seed = 9))
  private lazy val corpus = Datasets.build(spark, onto, log)

  test("encode produces one label per node and the right relation count") {
    val ex = corpus.cmd.head
    val g = GiantPipeline.qtigOf(ex)
    val enc = GCTSPNet.encode(g, GCTSPNet.binaryLabels(ex.gold))
    assert(enc.n == g.size)
    assert(enc.rels.length == QTIG.NumRelations)
    assert(enc.labels.count(_ == 1) <= ex.gold.size)
    assert(enc.labels(0) == 0 && enc.labels(1) == 0) // markers negative
  }

  test("atspDecode orders a simple in-order phrase correctly") {
    val g = QTIG.build(Seq(Seq("famous", "runner")), Seq(Seq("review", "famous", "runner")))
    val pos = Set(g.nodeOf("famous").get, g.nodeOf("runner").get)
    assert(GCTSPNet.atspDecode(g, pos) == Seq("famous", "runner"))
  }

  test("atspDecode recovers gold order despite inserted tokens and reordering") {
    // gold: famous animated film-like: "famous crime series"
    val g = QTIG.build(
      Seq(Seq("what", "are", "the", "famous", "crime", "series")),
      Seq(Seq("review", "famous", "classic", "crime", "series"),
        Seq("crime", "series", "famous")))
    val pos = Set("famous", "crime", "series").map(t => g.nodeOf(t).get)
    assert(GCTSPNet.atspDecode(g, pos) == Seq("famous", "crime", "series"))
  }

  test("atspDecode of empty positives is empty") {
    val g = QTIG.build(Seq(Seq("famous", "runner")), Seq.empty)
    assert(GCTSPNet.atspDecode(g, Set.empty) == Seq.empty)
  }

  test("atspDecode of a single positive returns it") {
    val g = QTIG.build(Seq(Seq("famous", "runner")), Seq.empty)
    assert(GCTSPNet.atspDecode(g, Set(g.nodeOf("runner").get)) == Seq("runner"))
  }

  test("binary miner learns concept extraction well above baseline") {
    val train = corpus.train(corpus.cmd)
    val test = corpus.test(corpus.cmd) ++ corpus.cmd.filter(_.split == "dev")
    assert(train.size > 30 && test.nonEmpty)
    val graphs = train.map(ex => GCTSPNet.encode(GiantPipeline.qtigOf(ex), GCTSPNet.binaryLabels(ex.gold)))
    val params = RGCNTrainer.train(Seq(graphs -> GCTSPNet.config(2)), epochs = 40, seed = 13).head
    val pairs = test.map { ex =>
      (GCTSPNet.minePhrase(GiantPipeline.qtigOf(ex), params), ex.gold)
    }
    val (em, f1, cov) = Metrics.phraseScores(pairs)
    info(f"concept mining EM=$em%.3f F1=$f1%.3f COV=$cov%.3f")
    assert(f1 > 0.6, f"F1 $f1%.3f too low — model failed to learn")
    assert(cov > 0.8)
  }

  test("element classifier learns the 4-class task") {
    val train = corpus.train(corpus.emd)
    val test = corpus.test(corpus.emd) ++ corpus.emd.filter(_.split == "dev")
    val graphs = train.map { ex =>
      GCTSPNet.encode(GiantPipeline.qtigOf(ex),
        GCTSPNet.elementLabels(ex.goldEntity, ex.goldTrigger, ex.goldLocation))
    }
    val params = RGCNTrainer.train(Seq(graphs -> GCTSPNet.config(GCTSPNet.ElementClasses)),
      epochs = 40, seed = 13).head
    val pairs = test.flatMap { ex =>
      val lf = GCTSPNet.elementLabels(ex.goldEntity, ex.goldTrigger, ex.goldLocation)
      val cls = GCTSPNet.classifyElements(GiantPipeline.qtigOf(ex), params)
      ex.gold.map(t => (lf(t), cls.getOrElse(t, 0)))
    }
    val (macroF1, microF1, _) = Metrics.classF1s(pairs, GCTSPNet.ElementClasses)
    info(f"elements macro=$macroF1%.3f micro=$microF1%.3f")
    assert(microF1 > 0.7, f"micro-F1 $microF1%.3f too low")
  }
}
