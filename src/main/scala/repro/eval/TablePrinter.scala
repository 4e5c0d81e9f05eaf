package repro.eval

import repro.eval.Tables._

/** Text lines of every reproduced table next to the paper's numbers: the one
  * format of each table, printed by the `jobs/` main and the bench suites.
  * Our corpus is a scaled-down synthetic one, so counts compare in ordering
  * of magnitude and scores in which method wins.
  */
object TablePrinter {

  private def banner(title: String): Seq[String] = Seq("", s"================ $title ================")

  def table1(r: OntologyReport): Seq[String] = {
    val paper = Map("category" -> 1206L, "concept" -> 460652L, "topic" -> 12679L,
      "event" -> 86253L, "entity" -> 1980841L)
    banner("TABLE 1: nodes in the attention ontology") ++
      Seq(f"${"kind"}%-10s ${"paper"}%10s ${"ours"}%10s") ++
      Seq("category", "concept", "topic", "event", "entity").map(k =>
        f"$k%-10s ${paper(k)}%10d ${r.nodeCounts.getOrElse(k, 0L)}%10d") ++
      Seq(f"mined concept phrase accuracy: ${r.conceptPhraseAccuracy}%.3f",
        f"mined event   phrase accuracy: ${r.eventPhraseAccuracy}%.3f")
  }

  def table2(r: OntologyReport): Seq[String] = {
    val paperN = Map("isA" -> 490741L, "correlate" -> 1080344L, "involve" -> 160485L)
    val paperAcc = Map("isA" -> 0.95, "correlate" -> 0.95, "involve" -> 0.99)
    banner("TABLE 2: edges in the attention ontology") ++
      Seq(f"${"kind"}%-10s ${"paper n"}%10s ${"paper acc"}%10s ${"ours n"}%8s ${"ours acc"}%9s") ++
      r.edgeStats.map(s =>
        f"${s.kind}%-10s ${paperN(s.kind)}%10d ${paperAcc(s.kind)}%10.2f ${s.count}%8d ${s.accuracy}%9.3f")
  }

  def table3(rows: Seq[ConceptShowcase]): Seq[String] =
    banner("TABLE 3: concepts with categories and instances") ++
      rows.map(c => s"[${c.category}] '${c.concept}'  instances: ${c.instances.mkString(", ")}")

  def table4(rows: Seq[EventShowcase]): Seq[String] =
    banner("TABLE 4: topics with events and involved entities") ++
      rows.flatMap(e => Seq(s"[${e.category}] topic='${e.topic}'",
        s"  events: ${e.events.mkString(" | ")}", s"  entities: ${e.entities.mkString(", ")}"))

  /** Paper and our three scores per method, in the rows' order. */
  private def scoreTable(title: String, cols: (String, String, String),
                         paper: Map[String, (Double, Double, Double)],
                         rows: Seq[(String, (Double, Double, Double))]): Seq[String] = {
    val (a, b, c) = cols
    banner(title) ++
      Seq(f"${"Method"}%-12s | ${"paper " + a}%8s $b%6s $c%6s | ${"ours " + a}%8s $b%6s $c%6s") ++
      rows.map { case (m, (x, y, z)) =>
        val (pa, pb, pc) = paper(m)
        f"$m%-12s | $pa%8.4f $pb%6.4f $pc%6.4f | $x%8.4f $y%6.4f $z%6.4f"
      }
  }

  private def phraseRows(rows: Seq[PhraseScore]) = rows.map(r => r.method -> ((r.em, r.f1, r.cov)))

  def table5(rows: Seq[PhraseScore]): Seq[String] =
    scoreTable("TABLE 5: concept mining (CMD)", ("EM", "F1", "COV"), Map(
      "TextRank" -> (0.1941, 0.7356, 1.0), "AutoPhrase" -> (0.0725, 0.4839, 0.9353),
      "Match" -> (0.1494, 0.3054, 0.3639), "Align" -> (0.7016, 0.8895, 0.9611),
      "MatchAlign" -> (0.6462, 0.8814, 0.97), "Q-LSTM-CRF" -> (0.7171, 0.8828, 0.9731),
      "T-LSTM-CRF" -> (0.3106, 0.6333, 0.9062), "GCTSP-Net" -> (0.783, 0.9576, 1.0)),
      phraseRows(rows))

  def table6(rows: Seq[PhraseScore]): Seq[String] =
    scoreTable("TABLE 6: event mining (EMD)", ("EM", "F1", "COV"), Map(
      "TextRank" -> (0.3968, 0.8102, 1.0), "CoverRank" -> (0.4663, 0.8169, 1.0),
      "TextSummary" -> (0.0047, 0.1064, 1.0), "LSTM-CRF" -> (0.4597, 0.8469, 1.0),
      "GCTSP-Net" -> (0.5164, 0.8562, 0.9972)),
      phraseRows(rows))

  def table7(rows: Seq[ClassScore]): Seq[String] =
    scoreTable("TABLE 7: event key elements recognition", ("ma", "mi", "wt"), Map(
      "LSTM" -> (0.2108, 0.5532, 0.6563), "LSTM-CRF" -> (0.261, 0.6468, 0.7238),
      "GCTSP-Net" -> (0.6291, 0.9438, 0.9331)),
      rows.map(r => r.method -> ((r.macroF1, r.microF1, r.weightedF1))))

  /** Sec. 5.3 in-text numbers. */
  def docTagging(r: DocTaggingEval.Report): Seq[String] =
    banner("SEC 5.3: document tagging") ++
      r.perCategory.map { case (cat, p, n) => f"$cat%-12s concept precision=$p%.3f over $n%5d tagged docs" } ++
      Seq(f"overall concept precision ${r.conceptPrecision}%.3f (paper: 0.88)",
        f"overall event   precision ${r.eventPrecision}%.3f (paper: 0.96)",
        f"concept coverage ${r.conceptCoverage}%.3f (paper: 0.35)",
        f"event   coverage ${r.eventCoverage}%.3f (paper: 0.04)")
}
