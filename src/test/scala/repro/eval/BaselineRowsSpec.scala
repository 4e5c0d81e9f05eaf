package repro.eval

import repro.{SharedRun, SparkSpec}

/** The Tables 5–7 rows that involve no GCTSP-Net training, pinned to the bit
  * on the shared run. They depend only on the random-walk corpus and the
  * baseline and tagger constants (not on head training or the core count),
  * so a changed baseline literal moves them even where perfbench's 0.05
  * tolerance on Tables 5–7 would not notice.
  */
class BaselineRowsSpec extends SparkSpec {

  private lazy val res = SharedRun.pipeline._1

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  /** Table → method → raw bits of (EM, F1, COV) or (macro, micro, weighted F1). */
  private val Pinned: Map[String, Map[String, Seq[Long]]] = Map(
    "table5" -> Map(
      "Align" -> Seq(0x3fdb6db6db6db6dbL, 0x3fec9aa518085bf3L, 0x3ff0000000000000L),
      "AutoPhrase" -> Seq(0x3fc2492492492492L, 0x3fea082082082082L, 0x3ff0000000000000L),
      "Match" -> Seq(0x0000000000000000L, 0x0000000000000000L, 0x0000000000000000L),
      "MatchAlign" -> Seq(0x3fdb6db6db6db6dbL, 0x3fec9aa518085bf3L, 0x3ff0000000000000L),
      "Q-LSTM-CRF" -> Seq(0x3fdb6db6db6db6dbL, 0x3fec9aa518085bf3L, 0x3ff0000000000000L),
      "T-LSTM-CRF" -> Seq(0x3fe2492492492492L, 0x3fed84b3b8f26a95L, 0x3ff0000000000000L),
      "TextRank" -> Seq(0x0000000000000000L, 0x3fe7700949b92ddbL, 0x3ff0000000000000L)),
    "table6" -> Map(
      "CoverRank" -> Seq(0x3fd0000000000000L, 0x3fed1c71c71c71c7L, 0x3ff0000000000000L),
      "LSTM-CRF" -> Seq(0x3fe0000000000000L, 0x3feedb6db6db6db7L, 0x3ff0000000000000L),
      "TextRank" -> Seq(0x3fe0000000000000L, 0x3feb555555555555L, 0x3ff0000000000000L),
      "TextSummary" -> Seq(0x0000000000000000L, 0x0000000000000000L, 0x3ff0000000000000L)),
    "table7" -> Map(
      "LSTM" -> Seq(0x3fef444502211d12L, 0x3fef39ce739ce73aL, 0x3fef3e8cd871f34aL),
      "LSTM-CRF" -> Seq(0x3fef444502211d12L, 0x3fef39ce739ce73aL, 0x3fef3e8cd871f34aL)))

  private def rowsOf(table: String): Map[String, Seq[Long]] = (table match {
    case "table5" => Tables.table5(res).map(r => r.method -> Seq(r.em, r.f1, r.cov))
    case "table6" => Tables.table6(res).map(r => r.method -> Seq(r.em, r.f1, r.cov))
    case "table7" => Tables.table7(res).map(r => r.method -> Seq(r.macroF1, r.microF1, r.weightedF1))
  }).filter(_._1 != "GCTSP-Net").map { case (m, xs) => m -> xs.map(bits) }.toMap

  for (table <- Seq("table5", "table6", "table7"))
    test(s"$table: every non-GCTSP-Net row is pinned to the bit") {
      val rows = rowsOf(table)
      def literal(m: Map[String, Seq[Long]]): String = m.toSeq.sortBy(_._1).map { case (k, v) =>
        s""""$k" -> Seq(${v.map(b => f"0x$b%016xL").mkString(", ")})""" }.mkString(",\n")
      assert(rows == Pinned(table), s"\n${literal(rows)}")
    }
}
