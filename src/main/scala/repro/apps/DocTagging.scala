package repro.apps

import repro.core.Normalize
import repro.nlp.{Lang, PhraseIndex}

/** Document tagging (Sec. 4), the matching method: tag a document with
  * concepts it does not necessarily contain, via its key entities and their
  * parent concepts; tag events/topics by longest-common-subsequence plus a
  * semantic match (the paper's Duet matcher is replaced by token-vector
  * cosine — see DESIGN.md substitutions). The paper's probabilistic
  * inference fallback (Eq. 12–14) is not implemented, so §5.3 scores the
  * matching method only.
  *
  * Entity mentions come from one [[repro.nlp.PhraseIndex]] over the entity
  * dictionary: a body costs O(body length × longest name), not
  * O(body length × dictionary size). Build the index once and pass it to
  * the index-taking forms; the `Seq`-taking forms build it per call.
  */
object DocTagging {

  /** Lowest coherence-weighted score `tagConcepts` keeps. */
  private val MinConceptScore = 0.05

  /** Key entities of a document: dictionary entities mentioned in the body,
    * with mention counts (P(e|d) in Eq. 12 is the normalized count), in
    * dictionary order.
    */
  def keyEntities(body: Seq[String], dictionary: PhraseIndex): Seq[(Long, Double)] = {
    val counts = dictionary.find(body).toSeq.map { case (e, at) =>
      dictionary.entries(e)._1 -> at.size.toDouble
    }
    val total = counts.map(_._2).sum
    if (total == 0) Seq.empty else counts.map { case (id, c) => (id, c / total) }
  }

  def keyEntities(body: Seq[String], dictionary: Seq[(Long, Seq[String])]): Seq[(Long, Double)] =
    keyEntities(body, PhraseIndex(dictionary))

  /** Matching-based concept tagging: candidates are parent concepts of the
    * key entities; coherence = TF-IDF similarity between the doc title and
    * the concept's context-enriched representation (its top clicked titles).
    */
  def tagConcepts(title: Seq[String], body: Seq[String],
                  dictionary: PhraseIndex,
                  parentConcepts: Map[Long, Seq[Long]],
                  conceptRep: Map[Long, Seq[String]],
                  df: Map[String, Int], nDocs: Int): Seq[(Long, Double)] = {
    val ents = keyEntities(body, dictionary)
    val cands = ents.flatMap { case (eid, pe) =>
      parentConcepts.getOrElse(eid, Seq.empty).map(c => (c, pe))
    }
    cands.groupBy(_._1).toSeq.map { case (cid, grp) =>
      val coherence = Normalize.tfidfCosine(title, conceptRep.getOrElse(cid, Seq.empty), df, nDocs)
      (cid, coherence * (1.0 + grp.map(_._2).sum))
    }.filter(_._2 >= MinConceptScore).sortBy(-_._2)
  }

  def tagConcepts(title: Seq[String], body: Seq[String],
                  dictionary: Seq[(Long, Seq[String])],
                  parentConcepts: Map[Long, Seq[Long]],
                  conceptRep: Map[Long, Seq[String]],
                  df: Map[String, Int], nDocs: Int): Seq[(Long, Double)] =
    tagConcepts(title, body, PhraseIndex(dictionary), parentConcepts, conceptRep, df, nDocs)

  /** Token-level longest common subsequence length. */
  def lcsLen(a: Seq[String], b: Seq[String]): Int = {
    val dp = Array.fill(a.size + 1, b.size + 1)(0)
    for (i <- 1 to a.size; j <- 1 to b.size)
      dp(i)(j) = if (a(i - 1) == b(j - 1)) dp(i - 1)(j - 1) + 1
                 else math.max(dp(i - 1)(j), dp(i)(j - 1))
    dp(a.size)(b.size)
  }

  /** Cosine similarity of token-count vectors — the semantic matcher
    * substituting the Duet network.
    */
  def semanticSim(a: Seq[String], b: Seq[String]): Double = {
    val ca = a.groupBy(identity).view.mapValues(_.size.toDouble).toMap
    val cb = b.groupBy(identity).view.mapValues(_.size.toDouble).toMap
    val dot = ca.map { case (t, v) => v * cb.getOrElse(t, 0.0) }.sum
    val na = math.sqrt(ca.values.map(v => v * v).sum)
    val nb = math.sqrt(cb.values.map(v => v * v).sum)
    if (na == 0 || nb == 0) 0.0 else dot / (na * nb)
  }

  // Lowest LCS over phrase length, and lowest semantic match, of an event tag.
  private val LcsFrac = 0.6
  private val SimThreshold = 0.25

  /** Tag events/topics: LCS over (title + first body clause) of at least
    * `LcsFrac` of the phrase length AND a semantic match of at least
    * `SimThreshold` (Sec. 4).
    *
    * The LCS runs only for events that can pass: it is at most
    * #{j : phrase(j) ∈ target}, so an event whose shared-token count is
    * below `LcsFrac` of its length is skipped without changing the result
    * (this drops every event sharing no token). Surviving events keep their
    * input order, so ties sort as in the full loop.
    */
  def tagEvents(title: Seq[String], body: Seq[String],
                eventPhrases: Seq[(Long, Seq[String])]): Seq[(Long, Double)] = {
    val firstClause = body.takeWhile(t => !Lang.isPunct(t))
    val target = title ++ firstClause
    val inTarget = target.toSet
    eventPhrases.flatMap { case (id, phrase) =>
      val len = math.max(1, phrase.size)
      if (phrase.count(inTarget).toDouble / len < LcsFrac) None
      else {
        val lcs = lcsLen(phrase, target).toDouble / len
        val sim = semanticSim(phrase, target)
        if (lcs >= LcsFrac && sim >= SimThreshold) Some((id, lcs + sim)) else None
      }
    }.sortBy(-_._2)
  }
}
