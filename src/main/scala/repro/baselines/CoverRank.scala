package repro.baselines

import repro.nlp.Lang

/** CoverRank (Sec. 3.1, event candidate construction; baseline in Table 6):
  * split document titles into subtitles at punctuation, keep those within a
  * length band, score each by the number of unique non-stop query tokens it
  * covers, tie-break by click weight, and return the top subtitle.
  */
object CoverRank {

  /** Split a title into punctuation-delimited subtitles. */
  def subtitles(title: Seq[String]): Seq[Seq[String]] = {
    val out = Seq.newBuilder[Seq[String]]
    var cur = Vector.empty[String]
    for (t <- title) {
      if (Lang.isPunct(t)) { if (cur.nonEmpty) out += cur; cur = Vector.empty }
      else cur = cur :+ t
    }
    if (cur.nonEmpty) out += cur
    out.result()
  }

  // Subtitle token-count band (paper: 6 to 20 characters), and the queries
  // and subtitles each that `topTexts` keeps.
  private val LenLo = 3
  private val LenHi = 10
  private val TopTexts = 2

  /** Rank all subtitles of a cluster.
    *
    * @param queries weighted query token sequences (weight = click mass)
    * @param titles  weighted title token sequences
    */
  def rank(queries: Seq[(Seq[String], Double)],
           titles: Seq[(Seq[String], Double)]): Seq[(Seq[String], Int, Double)] = {
    val qTokens = queries.flatMap(_._1).filterNot(Lang.isStop).toSet
    val cands = for {
      (title, w) <- titles
      sub <- subtitles(title)
      if sub.size >= LenLo && sub.size <= LenHi
    } yield {
      val cover = sub.filterNot(Lang.isStop).distinct.count(qTokens)
      (sub, cover, w)
    }
    cands.sortBy { case (s, cover, w) => (-cover, -w, s.mkString(" ")) }
  }

  /** Top-ranked subtitle = the candidate event phrase. */
  def extract(queries: Seq[(Seq[String], Double)], titles: Seq[(Seq[String], Double)]): Seq[String] =
    rank(queries, titles).headOption.map(_._1).getOrElse(Seq.empty)

  /** Top queries + subtitles (feed for the TextRank event baseline). */
  def topTexts(queries: Seq[(Seq[String], Double)],
               titles: Seq[(Seq[String], Double)]): Seq[Seq[String]] = {
    val topQ = queries.sortBy(-_._2).take(TopTexts).map(_._1)
    val topS = rank(queries, titles).take(TopTexts).map(_._1)
    topQ ++ topS
  }
}
