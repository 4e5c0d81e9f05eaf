package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{GiantPipeline, Normalize, Ontology}
import repro.data.{ClickLogGen, OntoGen}
import repro.eval.{Datasets, DocTaggingEval, Tables}

/** The pipeline state a workload holds after set-up or an op. Fields an op
  * has not produced yet are None; kernel replays read whatever is there.
  */
final case class Artifacts(scale: Tables.Scale,
                           onto: OntoGen.GoldOntology, log: ClickLogGen.ClickLog,
                           corpus: Option[Datasets.Corpus] = None,
                           models: Option[GiantPipeline.TrainedModels] = None,
                           mined: Option[(Seq[Normalize.MinedPhrase], Seq[Normalize.MinedPhrase])] = None,
                           built: Option[Ontology.Built] = None) {
  def prepared: Tables.Prepared = Tables.Prepared(onto, log, corpus.get)
  def result: GiantPipeline.Result = GiantPipeline.Result(onto, log, corpus.get, models.get, built.get)
}

/** One benchmark workload: set-up builds the state from the seed, `op` is one
  * closed-loop operation. Every call into the program goes through a trace
  * span named after the layer (module) it enters.
  */
abstract class Workload(val spark: SparkSession, val t: Trace, val seed: Long) {
  def scale: Tables.Scale
  /** Set-ups before each timed slice; more where one set-up is too short to time steadily. */
  def setupsPerSlice: Int = 1
  /** Layer spans that the op does not reach and that the traced run measures once after timing. */
  def probes: Seq[String]
  var art: Artifacts = _

  def setup(): Unit
  /** One op; returns the number of items it completed. */
  def op(): Int
  /** Named output values of the last op, checked against the reference (not timed). */
  def outputs(): Map[String, Double]

  protected def generate(s: Tables.Scale): (OntoGen.GoldOntology, ClickLogGen.ClickLog) = {
    // seeds derived from the scale seed as Tables.prepare derives them
    val onto = t.span("data.onto_gen")(OntoGen.generate(OntoGen.Params(
      nDerivedConcepts = s.nConcepts, nEvents = s.nEvents, seed = s.seed)))
    val log = t.span("data.clicklog_gen")(ClickLogGen.generate(spark, onto, ClickLogGen.Params(seed = s.seed + 1)))
    (onto, log)
  }

  /** Tables.prepare, with its data and dataset steps traced. */
  protected def prepare(s: Tables.Scale): Artifacts =
    if (!t.enabled) {
      val p = Tables.prepare(spark, s)
      Artifacts(s, p.onto, p.log, Some(p.corpus))
    } else t.span("eval.prepare") {
      val (onto, log) = generate(s)
      Artifacts(s, onto, log, Some(t.span("eval.datasets_build")(Datasets.build(spark, onto, log))))
    }

  protected def trainHeads(a: Artifacts): Artifacts =
    a.copy(models = Some(t.span("ml.train_heads")(GiantPipeline.trainModels(spark, a.corpus.get, a.scale.epochs))))

  protected def mineAndAssemble(a: Artifacts): Artifacts = {
    val (mc, me) = t.span("core.mine")(GiantPipeline.minePhrases(spark, a.corpus.get, a.models.get))
    val built = t.span("core.assemble")(
      GiantPipeline.assemble(spark, a.onto, a.log, a.corpus.get, a.models.get, mc, me))
    a.copy(mined = Some((mc, me)), built = Some(built))
  }

  protected def clusters(c: Datasets.Corpus): Int = c.cmd.size + c.emd.size
}

object Workload {
  val Names = Seq("reproduce", "tag")

  def apply(name: String, spark: SparkSession, t: Trace, seed: Long): Workload = name match {
    case "reproduce" => new Reproduce(spark, t, seed)
    case "tag" => new Tag(spark, t, seed)
    case other => throw new IllegalArgumentException(s"unknown workload '$other' (expected ${Names.mkString(", ")})")
  }

  /** The Table 1–2 report of a built ontology, as Tables.tables1and2 makes it. */
  def judge(onto: OntoGen.GoldOntology, built: Ontology.Built): Tables.OntologyReport =
    Tables.OntologyReport(built.countByKind, Tables.judgeEdges(onto, built),
      Tables.phraseAccuracy(built.conceptNodes, id => onto.conceptById.get(id).map(_.tokens)),
      Tables.phraseAccuracy(built.eventNodes, id => onto.eventById.get(id).map(_.tokens)))

  /** Node counts by kind, edge counts and accuracies by kind, phrase
    * accuracies, and edge counts by `how`.
    */
  def ontologyValues(r: Tables.OntologyReport, built: Ontology.Built): Map[String, Double] =
    reportValues(r) ++ built.edges.groupBy(_.how).map { case (how, es) => s"edges_by_how.$how" -> es.size.toDouble }

  def reportValues(r: Tables.OntologyReport): Map[String, Double] =
    r.nodeCounts.map { case (k, n) => s"nodes.$k" -> n.toDouble } ++
      r.edgeStats.flatMap(s => Seq(s"edges.${s.kind}" -> s.count.toDouble, s"edge_acc.${s.kind}" -> s.accuracy)) ++
      Map("phrase_acc.concept" -> r.conceptPhraseAccuracy, "phrase_acc.event" -> r.eventPhraseAccuracy)

  def taggingValues(r: DocTaggingEval.Report): Map[String, Double] = Map(
    "tagging.concept_precision" -> r.conceptPrecision, "tagging.event_precision" -> r.eventPrecision,
    "tagging.concept_coverage" -> r.conceptCoverage, "tagging.event_coverage" -> r.eventCoverage)

  def phraseValues(table: String, rows: Seq[Tables.PhraseScore]): Map[String, Double] =
    rows.flatMap(r => Seq(s"$table.${r.method}.em" -> r.em, s"$table.${r.method}.f1" -> r.f1,
      s"$table.${r.method}.cov" -> r.cov)).toMap

  def classValues(table: String, rows: Seq[Tables.ClassScore]): Map[String, Double] =
    rows.flatMap(r => Seq(s"$table.${r.method}.macro_f1" -> r.macroF1,
      s"$table.${r.method}.micro_f1" -> r.microF1, s"$table.${r.method}.weighted_f1" -> r.weightedF1)).toMap
}

/** The whole paper reproduction at small scale: Tables 1–2, doc tagging,
  * then Tables 5–7 on a freshly prepared corpus. Untraced, it calls the same
  * entry points as the bench suites; traced, it makes the same calls one
  * module function at a time.
  */
final class Reproduce(spark: SparkSession, t: Trace, seed: Long) extends Workload(spark, t, seed) {
  import Workload._
  // (derived concepts, events, epochs); reference.json is recorded at these sizes
  val scale = Tables.Scale(40, 25, 5, seed)
  val probes = Seq.empty
  override val setupsPerSlice = 5

  // the entry points generate their own inputs from the scale, so set-up is generation alone
  def setup(): Unit = {
    val (onto, log) = generate(scale)
    art = Artifacts(scale, onto, log)
  }

  private var values = Map.empty[String, Double]
  def outputs(): Map[String, Double] = values

  def op(): Int = {
    val (a, report) =
      if (!t.enabled) {
        val (res, report) = Tables.tables1and2(spark, scale)
        (Artifacts(scale, res.onto, res.log, Some(res.corpus), Some(res.models), None, Some(res.built)), report)
      } else {
        val (onto, log) = generate(scale)
        val corpus = t.span("eval.datasets_build")(Datasets.build(spark, onto, log))
        val a = mineAndAssemble(trainHeads(Artifacts(scale, onto, log, Some(corpus))))
        (a, t.span("eval.judge_edges")(judge(onto, a.built.get)))
      }
    art = a
    val tagging = t.span("eval.doc_tagging")(DocTaggingEval.run(a.result))
    val prep = prepare(scale).prepared
    val t5 = t.span("eval.table5")(Tables.table5(spark, prep, scale))
    val t6 = t.span("eval.table6")(Tables.table6(spark, prep, scale))
    val t7 = t.span("eval.table7")(Tables.table7(spark, prep, scale))
    values = ontologyValues(report, a.built.get) ++ taggingValues(tagging) ++
      phraseValues("table5", t5) ++ phraseValues("table6", t6) ++ classValues("table7", t7)
    clusters(a.corpus.get)
  }
}

/** The read path: set-up builds the ontology, each op tags every doc. */
final class Tag(spark: SparkSession, t: Trace, seed: Long) extends Workload(spark, t, seed) {
  // (derived concepts, events, epochs); reference.json is recorded at these sizes
  val scale = Tables.Scale(100, 50, 8, seed)
  val probes = Seq("eval.judge_edges", "eval.table5", "eval.table6", "eval.table7")

  def setup(): Unit = art = mineAndAssemble(trainHeads(prepare(scale)))

  private var report: DocTaggingEval.Report = _

  def op(): Int = {
    report = t.span("eval.doc_tagging")(DocTaggingEval.run(art.result))
    art.log.docRows.size
  }

  def outputs(): Map[String, Double] = Workload.taggingValues(report)
}
