package repro.ml

import repro.nlp.Lang

/** Sequence-tagging baselines standing in for the paper's LSTM-CRF / LSTM
  * (no DL framework offline; see DESIGN.md substitutions).
  *
  * [[CRFTagger]] is a linear-chain model trained with the averaged
  * structured perceptron (Viterbi decoding, learned transition scores);
  * [[SoftmaxTagger]] is the same emission model without output structure
  * (per-token argmax) — the paper's "LSTM" ablation in Table 7.
  */
object TagFeatures {

  private def lenBucket(t: String): Int =
    if (t.length <= 2) 0 else if (t.length <= 5) 1 else if (t.length <= 8) 2 else 3

  /** Emission features for position `i`. `context` marks tokens known from
    * elsewhere in the cluster (e.g. query tokens when tagging a title).
    */
  def featurize(tokens: Seq[String], i: Int, context: Set[String]): Seq[String] = {
    val t = tokens(i)
    val info = Lang.info(t)
    val prev = if (i > 0) Lang.info(tokens(i - 1)).pos else "BOS"
    val next = if (i < tokens.size - 1) Lang.info(tokens(i + 1)).pos else "EOS"
    val base = Seq(
      "b",
      s"pos=${info.pos}", s"ner=${info.ner}", s"stop=${info.stop}",
      s"len=${lenBucket(t)}", s"tok=$t",
      s"ppos=$prev", s"npos=$next",
      s"pos2=${prev}_${info.pos}", s"pos3=${info.pos}_$next",
      s"i=${math.min(i, 9)}")
    val pos = if (i == 0) base :+ "first" else if (i == tokens.size - 1) base :+ "last" else base
    if (context.contains(t)) pos :+ "inctx" else pos
  }
}

/** Training passes and data-shuffle seed of both taggers. */
private[ml] object PerceptronWeights {
  val Epochs = 8
  val Seed = 11L
}

/** Averaged-perceptron emission weights: one score per (feature, label).
  * `updates` counts the training steps so far, starting at 1; [[bump]]
  * accumulates each change times the step it was made in, so that
  * [[average]] can turn the final weights into their average over all steps.
  */
private[ml] final class PerceptronWeights(numLabels: Int) {

  private val w = collection.mutable.Map[String, Array[Double]]()
  private val wSum = collection.mutable.Map[String, Array[Double]]()
  private var step = 1L

  def updates: Long = step
  def tick(): Unit = step += 1

  def score(feats: Seq[String], label: Int): Double =
    feats.foldLeft(0.0)((s, f) => s + w.get(f).map(_(label)).getOrElse(0.0))

  def bump(f: String, label: Int, delta: Double): Unit = {
    val a = w.getOrElseUpdate(f, new Array[Double](numLabels))
    val s = wSum.getOrElseUpdate(f, new Array[Double](numLabels))
    a(label) += delta
    s(label) += delta * step
  }

  /** Finalize averaging: w_avg = w - wSum/T. */
  def average(): Unit = {
    val t = step.toDouble
    for ((f, a) <- w; y <- 0 until numLabels) a(y) -= wSum(f)(y) / t
  }
}

/** Linear-chain CRF via averaged structured perceptron. */
final class CRFTagger(val numLabels: Int) {

  private val w = new PerceptronWeights(numLabels)
  private val trans = Array.fill(numLabels + 1, numLabels)(0.0) // row numLabels = start
  private val transSum = Array.fill(numLabels + 1, numLabels)(0.0)

  private def viterbi(featSeq: Seq[Seq[String]]): Seq[Int] = {
    val n = featSeq.size
    val dp = Array.fill(n, numLabels)(Double.NegativeInfinity)
    val bp = Array.fill(n, numLabels)(0)
    for (y <- 0 until numLabels) dp(0)(y) = w.score(featSeq.head, y) + trans(numLabels)(y)
    for (i <- 1 until n; y <- 0 until numLabels) {
      val e = w.score(featSeq(i), y)
      var best = Double.NegativeInfinity; var arg = 0
      for (yp <- 0 until numLabels) {
        val s = dp(i - 1)(yp) + trans(yp)(y)
        if (s > best) { best = s; arg = yp }
      }
      dp(i)(y) = best + e; bp(i)(y) = arg
    }
    val out = new Array[Int](n)
    out(n - 1) = (0 until numLabels).maxBy(dp(n - 1))
    for (i <- n - 1 until 0 by -1) out(i - 1) = bp(i)(out(i))
    out.toSeq
  }

  /** Train on (tokens, gold labels, context) triples. */
  def train(data: Seq[(Seq[String], Seq[Int], Set[String])]): Unit = {
    val rng = new scala.util.Random(PerceptronWeights.Seed)
    for (_ <- 0 until PerceptronWeights.Epochs; (tokens, gold, ctx) <- rng.shuffle(data)) {
      val feats = tokens.indices.map(i => TagFeatures.featurize(tokens, i, ctx))
      val pred = viterbi(feats)
      if (pred != gold) {
        for (i <- tokens.indices if pred(i) != gold(i)) {
          feats(i).foreach { f => w.bump(f, gold(i), 1.0); w.bump(f, pred(i), -1.0) }
        }
        for (i <- tokens.indices) {
          val (gp, pp) = (if (i == 0) numLabels else gold(i - 1), if (i == 0) numLabels else pred(i - 1))
          if (gp != pp || gold(i) != pred(i)) {
            trans(gp)(gold(i)) += 1.0; transSum(gp)(gold(i)) += w.updates
            trans(pp)(pred(i)) -= 1.0; transSum(pp)(pred(i)) -= w.updates
          }
        }
      }
      w.tick()
    }
    w.average()
    val t = w.updates.toDouble
    for (y0 <- 0 to numLabels; y <- 0 until numLabels) trans(y0)(y) -= transSum(y0)(y) / t
  }

  /** Tag one text without cluster context. */
  def predict(tokens: Seq[String]): Seq[Int] = {
    if (tokens.isEmpty) return Seq.empty
    viterbi(tokens.indices.map(i => TagFeatures.featurize(tokens, i, Set.empty)))
  }
}

/** Per-token averaged perceptron (no transition structure). */
final class SoftmaxTagger(val numLabels: Int) {

  private val w = new PerceptronWeights(numLabels)

  def train(data: Seq[(Seq[String], Seq[Int], Set[String])]): Unit = {
    val rng = new scala.util.Random(PerceptronWeights.Seed)
    for (_ <- 0 until PerceptronWeights.Epochs; (tokens, gold, ctx) <- rng.shuffle(data); i <- tokens.indices) {
      val feats = TagFeatures.featurize(tokens, i, ctx)
      val pred = (0 until numLabels).maxBy(w.score(feats, _))
      if (pred != gold(i)) {
        feats.foreach { f => w.bump(f, gold(i), 1.0); w.bump(f, pred, -1.0) }
      }
      w.tick()
    }
    w.average()
  }

  /** Tag one text without cluster context. */
  def predict(tokens: Seq[String]): Seq[Int] =
    tokens.indices.map { i =>
      val feats = TagFeatures.featurize(tokens, i, Set.empty)
      (0 until numLabels).maxBy(w.score(feats, _))
    }
}
