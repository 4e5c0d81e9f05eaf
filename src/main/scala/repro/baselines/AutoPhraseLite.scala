package repro.baselines

import repro.nlp.Lang

/** Simplified AutoPhrase (Shang et al. 2018) — quality-phrase mining
  * baseline. Offline substitution for the original (which needs a knowledge
  * base + POS-guided segmentation model): candidate n-grams are scored by
  * frequency × cohesion (PMI-style) × a POS-pattern bonus for noun-headed
  * spans. Top-5 phrases are concatenated in first-appearance order, matching
  * the paper's baseline protocol.
  */
object AutoPhraseLite {

  private def noStop(gram: Seq[String]): Boolean = gram.forall(t => !Lang.isStop(t) && !Lang.isPunct(t))

  /** Longest candidate n-gram, and phrases kept (paper: top 5). */
  private val MaxLen = 4
  private val TopK = 5

  def minePhrases(texts: Seq[Seq[String]]): Seq[Seq[String]] = {
    val uni = collection.mutable.Map[String, Int]().withDefaultValue(0)
    val grams = collection.mutable.Map[Seq[String], Int]().withDefaultValue(0)
    var total = 0
    for (t <- texts) {
      for (tok <- t if !Lang.isPunct(tok)) { uni(tok) += 1; total += 1 }
      for (len <- 1 to MaxLen; g <- t.sliding(len) if g.size == len && noStop(g)) grams(g) += 1
    }
    if (total == 0) return Seq.empty
    def quality(g: Seq[String], f: Int): Double = {
      val cohesion =
        if (g.size == 1) 1.0
        else {
          val expected = g.map(t => uni(t).toDouble / total).product * total
          math.log(1 + f / math.max(expected, 1e-9))
        }
      val posBonus = if (Lang.info(g.last).pos == "NOUN" || Lang.info(g.last).pos == "PROPN") 1.5 else 0.8
      f * cohesion * posBonus * math.sqrt(g.size.toDouble)
    }
    grams.toSeq
      .filter(_._2 >= 2)
      .sortBy { case (g, f) => (-quality(g, f), g.mkString(" ")) }
      .take(TopK)
      .map(_._1)
  }

  /** Extract a phrase: tokens of the top phrases, in first-appearance order. */
  def extract(texts: Seq[Seq[String]]): Seq[String] = {
    val toks = minePhrases(texts).flatten.toSet
    texts.flatten.distinct.filter(toks)
  }
}
