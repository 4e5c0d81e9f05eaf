package repro.ml

import scala.util.Random

/** Entity embeddings trained with a hinge loss on co-occurrence pairs
  * (Sec. 3.2, "Edges between Entities"): correlated entities end up close in
  * Euclidean distance, negatives are pushed beyond a margin.
  */
object Embeddings {

  final case class Model(dim: Int, vecs: Map[Long, Array[Double]]) {
    def distance(a: Long, b: Long): Double = {
      (vecs.get(a), vecs.get(b)) match {
        case (Some(x), Some(y)) =>
          var s = 0.0
          var i = 0
          while (i < dim) { val d = x(i) - y(i); s += d * d; i += 1 }
          math.sqrt(s)
        case _ => Double.PositiveInfinity
      }
    }
  }

  // Vector size, SGD epochs and step, the two squared-distance margins,
  // sampled negatives per positive pair, and the seed.
  private val Dim = 16
  private val Epochs = 80
  private val Lr = 0.05
  private val MarginPos = 0.5
  private val MarginNeg = 4.0
  private val NegPerPos = 2
  private val Seed = 17L

  /** Train with hinge loss: pull positives within `MarginPos`, push sampled
    * negatives beyond `MarginNeg` (squared-distance margins).
    */
  def train(ids: Seq[Long], positives: Seq[(Long, Long)]): Model = {
    require(ids.nonEmpty, "no entities to embed")
    val rng = new Random(Seed)
    val idArr = ids.toArray
    val vecs = ids.map(id => id -> Array.fill(Dim)(rng.nextGaussian() * 0.5)).toMap

    def sqDist(x: Array[Double], y: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < Dim) { val d = x(i) - y(i); s += d * d; i += 1 }
      s
    }
    def pull(x: Array[Double], y: Array[Double], sign: Double): Unit = {
      var i = 0
      while (i < Dim) {
        val g = 2 * (x(i) - y(i)) * sign * Lr
        x(i) -= g; y(i) += g
        i += 1
      }
    }

    for (_ <- 0 until Epochs; (a, b) <- positives) {
      val (xa, xb) = (vecs(a), vecs(b))
      if (sqDist(xa, xb) > MarginPos) pull(xa, xb, 1.0)
      for (_ <- 0 until NegPerPos) {
        val c = idArr(rng.nextInt(idArr.length))
        if (c != a && c != b) {
          val xc = vecs(c)
          if (sqDist(xa, xc) < MarginNeg) pull(xa, xc, -1.0)
        }
      }
    }
    Model(Dim, vecs)
  }
}
