package perfbench

import org.apache.spark.sql.SparkSession
import repro.apps.DocTagging
import repro.core.{Derivation, GCTSPNet, GiantPipeline, Normalize, Ontology}
import repro.eval.{DocTaggingEval, Tables}
import repro.graph.QTIG
import repro.ml.{CRFTagger, RGCN, SoftmaxTagger}
import repro.tsp.ATSP

/** Single-threaded kernel replays and layer probes of the traced run.
  *
  * Replays time one public function per input (graph, cluster or doc) on the
  * workload's own artifacts. Probes call, once, the layer entry points that
  * the workload's op does not reach, so every layer is measured on every
  * workload. Results are per-layer metric values.
  */
object Replays {

  private def ms[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime(); val r = body; (r, (System.nanoTime() - t0) / 1e6)
  }
  private def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
  import Stats.median

  def run(spark: SparkSession, w: Workload, t: Trace): Map[String, Double] = {
    val a = w.art
    for (p <- w.probes) probe(spark, p, a, t)
    data(a) ++ ml(a) ++ qtigAndTsp(a) ++ core(spark, a) ++ apps(a) ++ taggers(a)
  }

  def data(a: Artifacts): Map[String, Double] = Map(
    "data.queries" -> a.log.queryRows.size, "data.docs" -> a.log.docRows.size,
    "data.clicks" -> a.log.clickRows.size, "data.entities" -> a.onto.entities.size)

  /** RGCN.lossAndGrad and RGCN.predictProbs per encoded CMD train graph. */
  def ml(a: Artifacts): Map[String, Double] = {
    val corpus = a.corpus.get
    val params = a.models.get.conceptMiner
    val graphs = corpus.train(corpus.cmd).map(ex =>
      GCTSPNet.encode(GiantPipeline.qtigOf(ex), GCTSPNet.binaryLabels(ex.gold)))
    val lg = graphs.map(g => ms(RGCN.lossAndGrad(g, params))._2)
    val fw = graphs.map(g => ms(RGCN.predictProbs(g, params))._2)
    Map("ml.loss_and_grad_ms" -> median(lg), "ml.forward_ms" -> median(fw),
      "ml.graphs" -> graphs.size, "ml.graph_nodes_mean" -> mean(graphs.map(_.n.toDouble)),
      "ml.graph_edges_mean" -> mean(graphs.map(_.rels.map(_.length / 2).sum.toDouble)))
  }

  /** QTIG.build and GCTSPNet.atspDecode per cluster, with the head that mines it. */
  def qtigAndTsp(a: Artifacts): Map[String, Double] = {
    val corpus = a.corpus.get
    val models = a.models.get
    val examples = corpus.cmd.map(_ -> models.conceptMiner) ++ corpus.emd.map(_ -> models.eventMiner)
    val built = examples.map { case (ex, p) =>
      val (g, buildMs) = ms(GiantPipeline.qtigOf(ex))
      (g, buildMs, GCTSPNet.predictPositives(g, GCTSPNet.encode(g, _ => 0), p))
    }
    val decodeMs = built.map { case (g, _, pos) => ms(GCTSPNet.atspDecode(g, pos))._2 }
    val ks = built.map(_._3.size).filter(_ >= 2)
    Map("graph.qtig_build_ms" -> median(built.map(_._2)),
      "graph.qtig_nodes_mean" -> mean(built.map(_._1.size.toDouble)),
      "graph.qtig_edges_mean" -> mean(built.map(_._1.edges.size / 2.0)),
      "tsp.decode_ms" -> median(decodeMs),
      "tsp.instances_exact" -> ks.count(_ <= ATSP.ExactLimit),
      "tsp.instances_heuristic" -> ks.count(_ > ATSP.ExactLimit),
      "tsp.k_max" -> (if (ks.isEmpty) 0 else ks.max))
  }

  /** Normalize.normalize and Derivation.commonSuffixes on the last mined phrases. */
  def core(spark: SparkSession, a: Artifacts): Map[String, Double] = {
    val built = a.built.get
    val (mc, me) = a.mined.get
    val ((cn, en), normMs) = ms((Normalize.normalize(mc, idBase = Ontology.ConceptNodeBase),
      Normalize.normalize(me, idBase = Ontology.EventNodeBase)))
    import spark.implicits._
    val df = cn.map(n => (n.id, n.phrase)).toDF("id", "phrase")
    val (_, csdMs) = ms(Derivation.commonSuffixes(spark, df).collect())
    val mined = mc ++ me
    val nonEmpty = mined.count(_.tokens.nonEmpty)
    val kinds = Seq("category", "concept", "topic", "event", "entity", "trigger", "location")
    val hows = Seq("attention-category", "concept-suffix", "event-topic", "topic-concept",
      "entity-concept", "event-entity", "event-trigger", "event-location", "entity-entity")
    val byKind = built.countByKind
    val byHow = built.edges.groupBy(_.how).view.mapValues(_.size).toMap
    Map[String, Double]("core.normalize_ms" -> normMs, "core.csd_s" -> csdMs / 1e3,
      "core.mined_phrases" -> mined.size, "core.empty_phrases" -> (mined.size - nonEmpty),
      "core.normalize_merges" -> (nonEmpty - cn.size - en.size)) ++
      kinds.map(k => s"core.nodes.$k" -> byKind.getOrElse(k, 0L).toDouble) ++
      hows.map(h => s"core.edges.$h" -> byHow.getOrElse(h, 0).toDouble)
  }

  /** DocTagging.keyEntities, tagConcepts and tagEvents per doc, on the inputs
    * DocTaggingEval.run builds for them.
    */
  def apps(a: Artifacts): Map[String, Double] = {
    val onto = a.onto; val built = a.built.get
    val dictionary = onto.entities.map(e => (e.id, e.name))
    val parentConcepts = built.edges.filter(_.how == "entity-concept")
      .groupBy(_.src).view.mapValues(_.map(_.dst)).toMap
    val docById = a.log.docRows.map(d => d.doc_id -> d).toMap
    val conceptRep = built.conceptNodes.map { n =>
      n.id -> (n.phrase ++ n.docIds.take(5).flatMap(docById.get).flatMap(_.title))
    }.toMap
    val eventPhrases = built.eventNodes.map(n => (n.id, n.phrase))
    val titles = a.log.docRows.map(_.title)
    val df = titles.flatMap(_.distinct).groupBy(identity).view.mapValues(_.size).toMap
    val docs = a.log.docRows
    val keyMs = docs.map(d => ms(DocTagging.keyEntities(d.body, dictionary))._2)
    val concept = docs.map(d => ms(DocTagging.tagConcepts(d.title, d.body, dictionary,
      parentConcepts, conceptRep, df, titles.size)))
    val event = docs.map(d => ms(DocTagging.tagEvents(d.title, d.body, eventPhrases)))
    Map("apps.key_entities_ms" -> mean(keyMs), "apps.tag_concepts_ms" -> mean(concept.map(_._2)),
      "apps.tag_events_ms" -> mean(event.map(_._2)),
      "apps.concept_tagged" -> concept.count(_._1.nonEmpty), "apps.event_tagged" -> event.count(_._1.nonEmpty))
  }

  /** Training of the CRF and softmax taggers that Tables 5–7 compare against. */
  def taggers(a: Artifacts): Map[String, Double] = {
    val corpus = a.corpus.get
    val cmd = corpus.train(corpus.cmd); val emd = corpus.train(corpus.emd)
    def bio(tokens: Seq[String], gold: Seq[String]) = (tokens, Tables.bioLabels(tokens, gold), Set.empty[String])
    val (_, trainMs) = ms {
      new CRFTagger(3).train(cmd.map(ex => bio(Tables.topQuery(ex), ex.gold)))
      new CRFTagger(3).train(cmd.flatMap(ex => ex.titles.map(t => bio(t.tokens, ex.gold))))
      new CRFTagger(3).train(emd.flatMap(ex => ex.titles.map(t => bio(t.tokens, ex.gold))))
      val elements = emd.flatMap { ex =>
        val lf = GCTSPNet.elementLabels(ex.goldEntity, ex.goldTrigger, ex.goldLocation)
        ex.titles.map(t => (t.tokens, t.tokens.map(lf), Set.empty[String]))
      }
      new SoftmaxTagger(GCTSPNet.ElementClasses).train(elements)
      new CRFTagger(GCTSPNet.ElementClasses).train(elements)
    }
    Map("ml.tagger_train_s" -> trainMs / 1e3)
  }

  /** One call of a layer entry point the op does not reach. */
  def probe(spark: SparkSession, name: String, a: Artifacts, t: Trace): Unit = t.span(name) {
    name match {
      case "eval.judge_edges" => Workload.judge(a.onto, a.built.get)
      case "eval.doc_tagging" => DocTaggingEval.run(a.result)
      case "eval.table5" => Tables.table5(spark, a.prepared, a.scale)
      case "eval.table6" => Tables.table6(spark, a.prepared, a.scale)
      case "eval.table7" => Tables.table7(spark, a.prepared, a.scale)
    }
  }
}
