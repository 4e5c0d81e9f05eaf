package repro.baselines

import repro.graph.QTIG

/** Generative summarization baseline (Table 6 "TextSummary").
  *
  * The paper's baseline is an attentional seq2seq model that performs
  * terribly at event mining (EM 0.0047). Offline we substitute a bigram
  * language model trained on the training clusters' concatenated texts,
  * decoded greedily — a deliberately crude generative decoder that
  * reproduces the "free generation does not match gold phrases" shape.
  */
final class TextSummaryLite private (bigrams: Map[String, Map[String, Int]]) {

  /** Greedy decode from `<sos>`, never repeating a token, up to `MaxLen`. */
  def summarize(): Seq[String] = {
    val out = Vector.newBuilder[String]
    var cur = QTIG.Sos
    var emitted = Set.empty[String]
    var steps = 0
    var done = false
    while (!done && steps < TextSummaryLite.MaxLen) {
      val nexts = bigrams.getOrElse(cur, Map.empty).filter { case (t, _) => !emitted.contains(t) }
      if (nexts.isEmpty) done = true
      else {
        val (tok, _) = nexts.toSeq.sortBy { case (t, c) => (-c, t) }.head
        if (tok == QTIG.Eos) done = true
        else { out += tok; emitted += tok; cur = tok; steps += 1 }
      }
    }
    out.result()
  }
}

object TextSummaryLite {

  /** Most tokens in a summary. */
  private val MaxLen = 12

  /** Fit the bigram LM on training texts (queries + titles, with markers). */
  def fit(corpus: Seq[Seq[String]]): TextSummaryLite = {
    val counts = collection.mutable.Map[String, collection.mutable.Map[String, Int]]()
    for (text <- corpus) {
      val toks = QTIG.Sos +: text :+ QTIG.Eos
      for (Seq(a, b) <- toks.sliding(2).toSeq) {
        val m = counts.getOrElseUpdate(a, collection.mutable.Map().withDefaultValue(0))
        m(b) += 1
      }
    }
    new TextSummaryLite(counts.view.mapValues(_.toMap).toMap)
  }
}
