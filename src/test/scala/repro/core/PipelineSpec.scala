package repro.core

import repro.{SharedRun, SparkSpec}
import repro.eval.{Datasets, Tables}
import repro.ml.RGCN

/** End-to-end pipeline integration: generate → walk → mine → normalize →
  * derive → link → evaluate, at test scale. Exercises everything behind
  * Tables 1–4.
  */
class PipelineSpec extends SparkSpec {

  private val scale = SharedRun.scale
  private lazy val (res, report) = SharedRun.pipeline

  test("ontology contains all five node kinds") {
    val kinds = res.built.countByKind
    for (k <- Seq("category", "concept", "event", "topic", "entity"))
      assert(kinds.getOrElse(k, 0L) > 0, s"missing $k nodes: $kinds")
  }

  test("node count ordering matches the paper: entity > concept > event > topic > category") {
    val k = res.built.countByKind
    assert(k("entity") > k("concept"), k.toString)
    assert(k("concept") > k("event") || k("concept") > k("topic"), k.toString)
    assert(k("event") > k("topic"), k.toString)
    assert(k("topic") >= 1 && k("category") == 12, k.toString)
  }

  test("all three edge kinds are produced") {
    val e = res.built.edges.groupBy(_.kind).view.mapValues(_.size).toMap
    for (k <- Seq("isA", "involve", "correlate"))
      assert(e.getOrElse(k, 0) > 0, s"missing $k edges: $e")
  }

  test("mined concept nodes mostly recover gold phrases") {
    assert(report.conceptPhraseAccuracy > 0.6,
      f"concept phrase accuracy ${report.conceptPhraseAccuracy}%.3f")
  }

  test("mined event nodes mostly recover gold phrases") {
    assert(report.eventPhraseAccuracy > 0.4,
      f"event phrase accuracy ${report.eventPhraseAccuracy}%.3f")
  }

  test("edge accuracies are high (paper: 95%+/95%+/99%+)") {
    for (s <- report.edgeStats) {
      info(f"${s.kind}: n=${s.count} acc=${s.accuracy}%.3f")
      assert(s.accuracy > 0.7, f"${s.kind} accuracy ${s.accuracy}%.3f too low")
    }
  }

  test("normalization merges duplicate clusters: fewer nodes than clusters") {
    assert(res.built.conceptNodes.size <= res.corpus.cmd.size)
    assert(res.built.eventNodes.size <= res.corpus.emd.size)
  }

  test("every concept node carries provenance (seeds, docs, gold attns)") {
    for (n <- res.built.conceptNodes) {
      assert(n.seeds.nonEmpty && n.goldAttns.nonEmpty)
    }
  }

  test("showcase tables are non-empty (Tables 3 and 4)") {
    val t3 = Tables.table3(res)
    val t4 = Tables.table4(res)
    assert(t3.nonEmpty, "no concept showcases")
    assert(t4.nonEmpty, "no event/topic showcases")
    for (c <- t3) assert(c.instances.nonEmpty)
  }

  test("edges reference existing nodes") {
    val ids = res.built.nodes.map(_.id).toSet
    for (e <- res.built.edges) {
      assert(ids.contains(e.src), s"dangling src in $e")
      assert(ids.contains(e.dst), s"dangling dst in $e")
    }
  }

  test("the ontology digest is locked at this scale") {
    assert(res.built.digest == Ontology.Digest(
      "8260fb1d45d5851df9655e1bf70e576c3e6e13185589409754b78c239c2046ec",
      "43cb2c02fb3e441ed58fd308e8b70ab8cb67ed744d5579577e826ed28560a0ea"))
  }

  test("the R-GCN kernel is pinned to the bit at trained parameters") {
    // SHA-256 of the raw bits of lossAndGrad (loss, then gradient) and of
    // predictProbs over a head's train graphs, at the head the run trained
    def sha(xs: Iterator[Double]): String = {
      val md = java.security.MessageDigest.getInstance("SHA-256")
      val buf = java.nio.ByteBuffer.allocate(8)
      xs.foreach { x => buf.clear(); md.update(buf.putLong(java.lang.Double.doubleToRawLongBits(x)).array()) }
      md.digest().map(b => f"$b%02x").mkString
    }
    def digests(exs: Seq[Datasets.MiningExample], labels: Datasets.MiningExample => String => Int,
                p: RGCN.Params): (String, String) = {
      val gs = exs.map(ex => GCTSPNet.encode(GiantPipeline.qtigOf(ex), labels(ex)))
      (sha(gs.iterator.flatMap { g => val (loss, grad) = RGCN.lossAndGrad(g, p); Iterator(loss) ++ grad }),
        sha(gs.iterator.flatMap(g => RGCN.predictProbs(g, p).iterator.flatten)))
    }
    val c = res.corpus
    assert(digests(c.train(c.cmd), GiantPipeline.phraseLabels, res.models.conceptMiner) ==
      ("db60bdac8cb4ee02ffd17e7626eae37c0c50887e6f5070065d9708ca407552b8",
        "a8b5c52d9820be3e492c6d088e0e3c226878018aa5ff20b2bf5e4cf34eb41cb3"))
    assert(digests(c.train(c.emd), GiantPipeline.elementLabels, res.models.elementClassifier) ==
      ("e7bc9a1010f1ce4e0e62c83f15a79fdb86f4439b61c196f3e0535d57c9d190f2",
        "b098c436b7db96968e78ccce819e51ec9ea6e16bec2e97c781d889216af3fd81"))
  }

  test("minePhrases launches no Spark job") {
    assert(jobsOf(GiantPipeline.minePhrases(spark, res.corpus, res.models)) == 0)
  }

  test("minePhrases equals a serial minePhrase over the CMD then the EMD clusters, in order") {
    def serial(exs: Seq[Datasets.MiningExample], miner: RGCN.Params) = exs.map { ex =>
      Normalize.MinedPhrase(ex.seed, GCTSPNet.minePhrase(GiantPipeline.qtigOf(ex), miner), ex.isEvent,
        ex.titles.map(_.tokens), ex.docIds, ex.attnId)
    }
    assert(GiantPipeline.minePhrases(spark, res.corpus, res.models) ==
      (serial(res.corpus.cmd, res.models.conceptMiner), serial(res.corpus.emd, res.models.eventMiner)))
  }

  test("node ids are unique across kinds") {
    val ids = res.built.nodes.map(_.id)
    assert(ids.distinct.size == ids.size)
  }

  test("Tables 5–7 score the run's heads; the standalone forms retrain them bitwise") {
    // both table forms score through one body, so equal corpora and equal
    // heads give equal rows
    val prep = Tables.prepare(spark, scale)
    assert(prep.corpus == res.corpus)
    def bits(p: RGCN.Params): Seq[Long] = p.flat.toSeq.map(java.lang.Double.doubleToLongBits)
    def trained(head: GiantPipeline.Head) = bits(GiantPipeline.trainHead(prep.corpus, head, scale.epochs))
    assert(trained(GiantPipeline.ConceptHead) == bits(res.models.conceptMiner))
    assert(trained(GiantPipeline.EventHead) == bits(res.models.eventMiner))
    assert(trained(GiantPipeline.ElementHead) == bits(res.models.elementClassifier))
  }
}
