package repro.baselines

import repro.nlp.Lang

/** The Match / Align / MatchAlign concept-mining baselines (Sec. 3.1
  * "Training Dataset Construction" and Sec. 5.2), from the authors' prior
  * ConcepT system.
  *
  * - **Match**: pattern bootstrapping. Start from seed stop-word query
  *   prefixes; extract the content span following a known prefix as a
  *   concept; learn new prefixes from queries where an already-extracted
  *   concept appears (pattern–concept duality); iterate.
  * - **Align**: find, in a clicked title, a chunk that contains all the
  *   query's content tokens in order (possibly with extra tokens inside the
  *   span); the chunk is the candidate concept.
  */
object MatchAlign {

  /** A pattern is a stop-word query prefix. */
  type Pattern = Seq[String]

  val SeedPatterns: Seq[Pattern] = Seq(Seq("what", "are", "the"))

  /** Bootstrapping rounds, and the fewest queries that teach a new prefix.
    * Support 2: the stop-word filter keeps most heavy-prefix queries out of
    * clusters, so pattern evidence is scarce (which is exactly why Match
    * trails Align).
    */
  private val Rounds = 3
  private val MinSupport = 2

  /** Strip stop/punct from both ends. */
  private def trim(tokens: Seq[String]): Seq[String] =
    tokens.dropWhile(t => Lang.isStop(t) || Lang.isPunct(t))
      .reverse.dropWhile(t => Lang.isStop(t) || Lang.isPunct(t)).reverse

  /** Extract by pattern match: longest known prefix, then the trimmed rest. */
  def matchExtract(query: Seq[String], patterns: Seq[Pattern]): Option[Seq[String]] = {
    val applicable = patterns.filter(p => query.startsWith(p)).sortBy(-_.size)
    applicable.headOption.map(p => trim(query.drop(p.size))).filter(_.nonEmpty)
  }

  /** One bootstrapping pass: learn new prefixes from queries whose suffix is
    * a known concept (minimum support to avoid noise).
    */
  def learnPatterns(queries: Seq[Seq[String]], concepts: Set[Seq[String]]): Seq[Pattern] = {
    val counts = collection.mutable.Map[Pattern, Int]().withDefaultValue(0)
    for (q <- queries; c <- concepts if q.endsWith(c) && q.size > c.size) {
      val prefix = q.dropRight(c.size)
      if (prefix.forall(Lang.isStop)) counts(prefix) += 1
    }
    counts.filter(_._2 >= MinSupport).keys.toSeq
  }

  /** Bootstrap patterns over a training corpus of queries (Sec. 3.1). */
  def bootstrap(queries: Seq[Seq[String]]): Seq[Pattern] = {
    var patterns = SeedPatterns
    for (_ <- 0 until Rounds) {
      val concepts = queries.flatMap(q => matchExtract(q, patterns)).toSet
      patterns = (patterns ++ learnPatterns(queries, concepts)).distinct
    }
    patterns
  }

  /** Align a query against one title: the shortest title chunk containing all
    * query content tokens in order (extra tokens allowed inside the span).
    */
  def alignOne(query: Seq[String], title: Seq[String]): Option[Seq[String]] = {
    val q = Lang.contentTokens(query)
    if (q.isEmpty) return None
    var best: Option[Seq[String]] = None
    for (start <- title.indices if title(start) == q.head) {
      var qi = 0
      var end = -1
      var i = start
      while (i < title.length && qi < q.length) {
        if (title(i) == q(qi)) { qi += 1; end = i }
        i += 1
      }
      if (qi == q.length) {
        val chunk = trim(title.slice(start, end + 1))
        if (best.forall(_.size > chunk.size)) best = Some(chunk)
      }
    }
    best
  }

  /** The most frequent candidate; ties go to the shorter, then the
    * lexicographically first.
    */
  private def mostFrequent(cands: Seq[Seq[String]]): Option[Seq[String]] =
    cands.groupBy(identity).toSeq
      .sortBy { case (c, g) => (-g.size, c.size, c.mkString(" ")) }.headOption.map(_._1)

  /** Align across a cluster's titles: the most frequent candidate wins. */
  def alignExtract(query: Seq[String], titles: Seq[Seq[String]]): Option[Seq[String]] =
    mostFrequent(titles.flatMap(t => alignOne(query, t)))

  /** MatchAlign: pool both extractors, keep the most frequent result. */
  def matchAlignExtract(query: Seq[String], titles: Seq[Seq[String]],
                        patterns: Seq[Pattern]): Option[Seq[String]] =
    mostFrequent(matchExtract(query, patterns).toSeq ++ titles.flatMap(t => alignOne(query, t)))
}
