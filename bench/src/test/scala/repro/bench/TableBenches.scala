package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.Ontology
import repro.eval.{DocTaggingEval, TablePrinter, Tables}

/** Shared bench state: one data generation and one pipeline run for all
  * table benches (suites run sequentially in one JVM, so these memoize).
  * Tables 5–7 score the run's own GCTSP-Net heads.
  */
object BenchShared {
  lazy val spark = SparkSpec.shared
  lazy val pipeline: (repro.core.GiantPipeline.Result, Tables.OntologyReport) =
    Tables.tables1and2(spark, Tables.BenchScale)

  def print(lines: Seq[String]): Unit = lines.foreach(println)
}

/** The behaviour lock: a change that keeps behaviour keeps the BenchScale
  * ontology digest and the Table 1/2 numbers exactly.
  */
class BehaviourLockBench extends AnyFunSuite {
  test("BenchScale ontology digest and Table 1/2 numbers") {
    val (res, report) = BenchShared.pipeline
    val d = res.built.digest
    BenchShared.print(Seq(s"ontology digest: nodes ${d.nodes} edges ${d.edges}"))
    assert(d == Ontology.Digest("151516ce400ad7611367e977f0495be775aa1af60f9b228983fc5ab8890a266b",
      "c2c2a20ddb43b6891a89194649f512e6b857f4c92729ad6f5856c5bc055505ba"))
    assert(Seq("category", "concept", "topic", "event", "entity").map(report.nodeCounts) ==
      Seq(12L, 760L, 108L, 380L, 3474L))
    assert(report.edgeStats.map(s => f"${s.kind} ${s.count} ${s.accuracy}%.3f") ==
      Seq("correlate 5398 1.000", "involve 1040 0.998", "isA 4424 0.975"))
    assert(f"${report.conceptPhraseAccuracy}%.3f ${report.eventPhraseAccuracy}%.3f" == "0.987 0.989")
  }
}

/** Table 1 — nodes in the attention ontology. Ours is a scaled-down corpus;
  * the *ordering* of magnitudes must hold.
  */
class Table1NodesBench extends AnyFunSuite {
  test("Table 1: node counts") {
    val (_, report) = BenchShared.pipeline
    BenchShared.print(TablePrinter.table1(report))
    val k = report.nodeCounts
    assert(k("entity") > k("concept") && k("event") > k("topic"))
  }
}

/** Table 2 — edges in the attention ontology, judged against the gold. */
class Table2EdgesBench extends AnyFunSuite {
  test("Table 2: edge counts and accuracy") {
    val (_, report) = BenchShared.pipeline
    BenchShared.print(TablePrinter.table2(report))
    for (s <- report.edgeStats)
      assert(s.accuracy > 0.85, f"${s.kind} accuracy ${s.accuracy}%.3f below paper band")
  }
}

/** Tables 3 & 4 — showcases of mined concepts and events/topics. */
class Table3And4ShowcaseBench extends AnyFunSuite {
  test("Table 3: concept showcases") {
    val rows = Tables.table3(BenchShared.pipeline._1)
    BenchShared.print(TablePrinter.table3(rows))
    assert(rows.nonEmpty)
  }

  test("Table 4: event and topic showcases") {
    val rows = Tables.table4(BenchShared.pipeline._1)
    BenchShared.print(TablePrinter.table4(rows))
    assert(rows.nonEmpty)
  }
}

/** Table 5 — concept mining on CMD: GCTSP-Net leads every method on EM and F1. */
class Table5ConceptMiningBench extends AnyFunSuite {
  test("Table 5: concept mining comparison") {
    val rows = Tables.table5(BenchShared.pipeline._1)
    BenchShared.print(TablePrinter.table5(rows))
    val g = rows.find(_.method == "GCTSP-Net").get
    for (r <- rows if r.method != "GCTSP-Net") assert(g.f1 >= r.f1 && g.em >= r.em)
  }
}

/** Table 6 — event mining on EMD: GCTSP-Net leads on EM; TextSummary collapses. */
class Table6EventMiningBench extends AnyFunSuite {
  test("Table 6: event mining comparison") {
    val rows = Tables.table6(BenchShared.pipeline._1)
    BenchShared.print(TablePrinter.table6(rows))
    val g = rows.find(_.method == "GCTSP-Net").get
    for (r <- rows if r.method != "GCTSP-Net") assert(g.em >= r.em)
    assert(rows.find(_.method == "TextSummary").get.em < 0.05)
  }
}

/** Table 7 — event key elements recognition: GCTSP-Net leads on micro and weighted F1. */
class Table7KeyElementsBench extends AnyFunSuite {
  test("Table 7: event key elements recognition") {
    val rows = Tables.table7(BenchShared.pipeline._1)
    BenchShared.print(TablePrinter.table7(rows))
    val g = rows.find(_.method == "GCTSP-Net").get
    for (r <- rows if r.method != "GCTSP-Net")
      assert(g.microF1 >= r.microF1 && g.weightedF1 >= r.weightedF1)
  }
}

/** Sec. 5.3 in-text numbers — document tagging precision and coverage. */
class DocTaggingBench extends AnyFunSuite {
  test("Sec 5.3: document tagging precision") {
    val r = DocTaggingEval.run(BenchShared.pipeline._1)
    BenchShared.print(TablePrinter.docTagging(r))
    assert(r.conceptPrecision > 0.7)
    assert(r.eventPrecision > 0.7)
  }
}
