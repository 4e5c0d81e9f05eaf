package repro.ml

/** Binary logistic regression over dense manual features — the offline
  * stand-in for the paper's GBDT / fine-tuned-LM concept–entity isA
  * classifier (Sec. 3.2). The paper's contribution there is the
  * auto-constructed training set (Fig. 4), not the classifier family.
  */
final class LogReg(val dim: Int) {
  val w = new Array[Double](dim)
  var b = 0.0

  def score(x: Array[Double]): Double = {
    var s = b
    var i = 0
    while (i < dim) { s += w(i) * x(i); i += 1 }
    1.0 / (1.0 + math.exp(-s))
  }

  def predict(x: Array[Double]): Boolean = score(x) > LogReg.Threshold
}

object LogReg {

  /** Lowest score of a positive prediction. */
  private val Threshold = 0.5

  // Full-batch gradient descent: epochs, step and L2 weight.
  private val Epochs = 300
  private val Lr = 0.5
  private val L2 = 1e-4

  /** Full-batch gradient descent with L2; deterministic. The feature count is
    * that of the first example.
    */
  def train(data: Seq[(Array[Double], Boolean)]): LogReg = {
    require(data.nonEmpty, "empty training set")
    val dim = data.head._1.length
    val m = new LogReg(dim)
    val n = data.size.toDouble
    for (_ <- 0 until Epochs) {
      val gw = new Array[Double](dim)
      var gb = 0.0
      for ((x, y) <- data) {
        val err = m.score(x) - (if (y) 1.0 else 0.0)
        var i = 0
        while (i < dim) { gw(i) += err * x(i); i += 1 }
        gb += err
      }
      var i = 0
      while (i < dim) { m.w(i) -= Lr * (gw(i) / n + L2 * m.w(i)); i += 1 }
      m.b -= Lr * gb / n
    }
    m
  }
}
