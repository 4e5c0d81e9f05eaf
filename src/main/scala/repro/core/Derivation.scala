package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.nlp.Lang

/** Attention derivation (Sec. 3.1): derive higher-level attentions from the
  * mined ones.
  *
  * - **Common Suffix Discovery (CSD)**: frequent noun-phrase suffixes of
  *   concept phrases become parent concepts ("animated film" from
  *   "Hayao Miyazaki animated film", …).
  * - **Common Pattern Discovery (CPD)**: events sharing a pattern (entity
  *   slots abstracted) whose entities share a concept ancestor yield a topic
  *   node: the entity slot is replaced by the most fine-grained common
  *   concept.
  */
object Derivation {

  /** Is a token sequence a noun phrase in our grammar? (content tokens,
    * noun-headed, no verbs/entities up front — entities are instances, not
    * abstractions)
    */
  def isNounPhrase(tokens: Seq[String]): Boolean =
    tokens.nonEmpty &&
      tokens.forall { t =>
        val i = Lang.info(t)
        !i.stop && (i.pos == "NOUN" || i.pos == "ADJ")
      } && {
        val h = Lang.info(tokens.last)
        h.pos == "NOUN"
      }

  /** The proper suffixes of a phrase, longest first. */
  def properSuffixes(p: Seq[String]): Seq[Seq[String]] = (1 until p.size).map(p.drop)

  /** Fewest distinct concepts sharing a CSD suffix (paper: support 2). */
  private val MinSuffixSupport = 2

  /** CSD as a DataFrame aggregation: explode all proper suffixes of each
    * concept phrase, count distinct concepts per suffix, keep noun phrases
    * with support ≥ `MinSuffixSupport`. The suffixes are repartitioned by
    * `suffix` first, which already satisfies both aggregations that
    * `countDistinct` plans, so the step shuffles once.
    *
    * @param concepts DataFrame with columns (id: Long, phrase: array<string>)
    * @return DataFrame (suffix: array<string>, support: long)
    */
  def commonSuffixes(spark: SparkSession, concepts: DataFrame): DataFrame = {
    val suffixesUdf = udf(properSuffixes(_: Seq[String]))
    val npUdf = udf(isNounPhrase(_: Seq[String]))
    concepts
      .select(col("id"), explode(suffixesUdf(col("phrase"))) as "suffix")
      .where(npUdf(col("suffix")))
      .repartition(col("suffix"))
      .groupBy("suffix").agg(countDistinct("id") as "support")
      .where(col("support") >= MinSuffixSupport)
  }

  /** The event pattern: entity-NER tokens collapsed into one `<E>` slot. */
  def eventPattern(tokens: Seq[String]): Seq[String] = {
    val collapsed = tokens.foldLeft(Vector.empty[String]) { (acc, t) =>
      if (Lang.info(t).ner == "ENT")
        if (acc.lastOption.contains("<E>")) acc else acc :+ "<E>"
      else acc :+ t
    }
    collapsed
  }

  /** A derived topic: phrase, member events, the common concept used. */
  final case class DerivedTopic(phrase: Seq[String], eventNodeIds: Seq[Long],
                                conceptPhrase: Seq[String])

  /** Fewest events sharing a CPD pattern and its concept (paper: support 2). */
  private val MinPatternSupport = 2

  /** CPD over mined event nodes.
    *
    * @param events          (nodeId, phrase) of mined event nodes
    * @param entityConcepts  entity token-seq → concept phrases it isA
    *                        (most fine-grained first)
    */
  def commonPatterns(events: Seq[(Long, Seq[String])],
                     entityConcepts: Map[Seq[String], Seq[Seq[String]]]): Seq[DerivedTopic] = {
    // entity mention inside each event = maximal run of ENT tokens
    def entityOf(tokens: Seq[String]): Seq[String] = tokens.filter(t => Lang.info(t).ner == "ENT")

    // drop time/location tokens from patterns — two launches in different
    // years or cities are still the same topic
    def normalized(tokens: Seq[String]): Seq[String] =
      eventPattern(tokens.filterNot { t =>
        val ner = Lang.info(t).ner; ner == "TIME" || ner == "LOC"
      })

    events.groupBy { case (_, p) => normalized(p) }
      .filter { case (pat, evs) => pat.contains("<E>") && evs.size >= MinPatternSupport }
      .flatMap { case (pat, evs) =>
        // Events in one pattern group need not all share a concept (the same
        // trigger can span categories, and a mis-mined entity has none), so
        // sub-group per shared concept: each event joins the most
        // fine-grained concept that at least `MinPatternSupport` of the group's
        // entities have an isA path to.
        val conceptsOf: Map[Long, Set[Seq[String]]] = evs.map { case (id, p) =>
          id -> entityConcepts.getOrElse(entityOf(p), Seq.empty).toSet
        }.toMap
        val support = conceptsOf.values.flatten.groupBy(identity).view.mapValues(_.size)
        val qualified = support.filter(_._2 >= MinPatternSupport).keys.toSet
        val assigned = evs.flatMap { case (id, _) =>
          val cands = conceptsOf(id).intersect(qualified)
          if (cands.isEmpty) None
          else Some(cands.toSeq.sortBy(c => (-c.size, c.mkString(" "))).head -> id)
        }
        assigned.groupBy(_._1).collect {
          case (concept, members) if members.size >= MinPatternSupport =>
            val phrase = pat.flatMap(t => if (t == "<E>") concept else Seq(t))
            DerivedTopic(phrase, members.map(_._2), concept)
        }
      }.toSeq.sortBy(_.phrase.mkString(" "))
  }
}
