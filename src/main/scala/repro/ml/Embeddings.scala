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

  /** Train with hinge loss: pull positives within `marginPos`, push sampled
    * negatives beyond `marginNeg` (squared-distance margins).
    */
  def train(ids: Seq[Long], positives: Seq[(Long, Long)], dim: Int = 16,
            epochs: Int = 80, lr: Double = 0.05, marginPos: Double = 0.5,
            marginNeg: Double = 4.0, negPerPos: Int = 2, seed: Long = 17): Model = {
    require(ids.nonEmpty, "no entities to embed")
    val rng = new Random(seed)
    val idArr = ids.toArray
    val vecs = ids.map(id => id -> Array.fill(dim)(rng.nextGaussian() * 0.5)).toMap

    def sqDist(x: Array[Double], y: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < dim) { val d = x(i) - y(i); s += d * d; i += 1 }
      s
    }
    def pull(x: Array[Double], y: Array[Double], sign: Double): Unit = {
      var i = 0
      while (i < dim) {
        val g = 2 * (x(i) - y(i)) * sign * lr
        x(i) -= g; y(i) += g
        i += 1
      }
    }

    for (_ <- 0 until epochs; (a, b) <- positives) {
      val (xa, xb) = (vecs(a), vecs(b))
      if (sqDist(xa, xb) > marginPos) pull(xa, xb, 1.0)
      for (_ <- 0 until negPerPos) {
        val c = idArr(rng.nextInt(idArr.length))
        if (c != a && c != b) {
          val xc = vecs(c)
          if (sqDist(xa, xc) < marginNeg) pull(xa, xc, -1.0)
        }
      }
    }
    Model(dim, vecs)
  }
}
