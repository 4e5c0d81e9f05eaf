package repro.baselines

import repro.nlp.Lang

/** TextRank keyword extraction (Mihalcea & Tarau 2004) — concept/event
  * mining baseline. Builds an undirected co-occurrence graph (window 2) over
  * the cluster's content tokens, runs PageRank, takes the top-k keywords and
  * concatenates them in their order of first appearance (the protocol the
  * paper uses for this baseline, Sec. 5.2).
  */
object TextRank {

  /** Keywords kept (paper: top 5), PageRank damping and iterations. */
  private val TopK = 5
  private val Damping = 0.85
  private val Iters = 30

  /** The top `TopK` keywords, highest PageRank score first. */
  def keywords(texts: Seq[Seq[String]]): Seq[String] = {
    val contents = texts.map(Lang.contentTokens)
    val vocab = contents.flatten.distinct.toVector
    if (vocab.isEmpty) return Seq.empty
    val idx = vocab.zipWithIndex.toMap
    val nbrs = Array.fill(vocab.size)(collection.mutable.Set[Int]())
    for (t <- contents; w <- t.sliding(2) if w.size == 2; a = idx(w(0)); b = idx(w(1)) if a != b) {
      nbrs(a) += b; nbrs(b) += a
    }
    var score = Array.fill(vocab.size)(1.0)
    for (_ <- 0 until Iters) {
      val next = Array.fill(vocab.size)(1 - Damping)
      for (i <- vocab.indices; j <- nbrs(i) if nbrs(j).nonEmpty)
        next(i) += Damping * score(j) / nbrs(j).size
      score = next
    }
    vocab.indices.sortBy(-score(_)).take(TopK).map(vocab)
  }

  /** Extract a phrase: the keywords ordered by first appearance. */
  def extract(texts: Seq[Seq[String]]): Seq[String] = {
    val kws = keywords(texts).toSet
    val flat = texts.flatten
    flat.distinct.filter(kws)
  }
}
