package repro.ml

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import repro.SparkSpec

object RGCNTrainerSpec {

  /** [[RGCNTrainer.train]] on one thread: the same loop, with each head's
    * gradient summed sequentially in the trainer's chunk order. Chunk k of n
    * graphs sums graphs `[k·n/4, (k+1)·n/4)` from zero, and the head's
    * gradient adds the four chunk sums to zero in chunk order.
    */
  def reference(heads: Seq[RGCNTrainer.Head], epochs: Int, seed: Long): Seq[RGCN.Params] =
    RGCNTrainer.loop(heads, epochs, seed)(_.zip(heads).map { case (flat, (gs, cfg)) =>
      val p = new RGCN.Params(cfg, flat)
      def sum(xs: Seq[Array[Double]]) = xs.foldLeft(new Array[Double](cfg.nParams)) { (acc, x) =>
        for (i <- acc.indices) acc(i) += x(i)
        acc
      }
      sum((0 until 4).map(k => sum(gs.slice(k * gs.size / 4, (k + 1) * gs.size / 4).map(RGCN.lossAndGrad(_, p)._2))))
    })
}

class RGCNTrainerSpec extends SparkSpec {
  import RGCNTrainerSpec.reference

  private def graph(seed: Int): RGCN.EncodedGraph = {
    val rng = new scala.util.Random(seed)
    val n = 6
    val feats = Array.fill(n)(Array.fill(4)(rng.nextDouble()))
    val r0 = (0 until n - 1).flatMap(i => Seq(i + 1, i)).toArray
    val labels = Array.tabulate(n)(i => i % 2)
    RGCN.EncodedGraph(feats, Array(r0), labels)
  }

  private val cfg = RGCN.Config(inDim = 4, hidden = 5, layers = 2, relations = 1,
    bases = 2, outClasses = 2)

  private def bits(p: RGCN.Params): Seq[Long] = p.flat.map(java.lang.Double.doubleToRawLongBits).toSeq

  /** One head trained by the trainer. */
  private def trainOne(graphs: Seq[RGCN.EncodedGraph], cfg: RGCN.Config,
                       epochs: Int, seed: Long): RGCN.Params =
    RGCNTrainer.train(Seq(graphs -> cfg), epochs, seed).head

  /** Graphs for a head of `classes` output classes. */
  private def graphs(n: Int, classes: Int, from: Int): Seq[RGCN.EncodedGraph] =
    (from until from + n).map { s =>
      val g = graph(s)
      g.copy(labels = g.labels.indices.map(i => (i + s) % classes).toArray)
    }

  test("property: train equals the driver-side chunk sum bitwise for 1-12 graphs") {
    // the reference runs on one thread, so this also checks that the result
    // does not depend on the thread count
    // counts below 4 leave chunks empty
    val seen = collection.mutable.Set[Int]()
    val cases = for {
      n <- Gen.choose(1, 12)
      classes <- Gen.oneOf(2, 3)
      from <- Gen.choose(0, 10000)
      seed <- Gen.choose(0L, 1000L)
    } yield (n, classes, from, seed)
    val r = Check.check(Check.Parameters.default.withMinSuccessfulTests(30)
      .withInitialSeed(Seed(20200614L)), Prop.forAllNoShrink(cases) { case (n, classes, from, seed) =>
      seen += n
      val head = Seq(graphs(n, classes, from) -> cfg.copy(outClasses = classes))
      bits(RGCNTrainer.train(head, epochs = 2, seed).head) == bits(reference(head, epochs = 2, seed).head)
    })
    assert(r.passed, org.scalacheck.util.Pretty.pretty(r))
    assert(seen == (1 to 12).toSet, s"graph counts checked: ${seen.toSeq.sorted}")
  }

  test("two runs on the same input give bitwise-identical parameters") {
    val graphs = (1 to 11).map(graph)
    def run = bits(trainOne(graphs, cfg, epochs = 4, seed = 7))
    assert(run == run)
  }

  test("trained parameters are pinned to the bit") {
    // SHA-256 of the raw bits; any change to the loop, Adam, its constants or
    // the chunk order moves it, and so does a core-count-dependent sum
    def digest(p: RGCN.Params): String = java.security.MessageDigest.getInstance("SHA-256")
      .digest(bits(p).mkString(",").getBytes("UTF-8")).map(b => f"$b%02x").mkString
    assert(digest(trainOne((1 to 8).map(graph), cfg, epochs = 5, seed = 3)) ==
      "0fbe8823276516283e5144376426d0eec1111c1ea8725919ccfdf9fd2ca49c61")
  }

  test("training reduces the aggregate loss") {
    val graphs = (1 to 6).map(graph)
    val p0 = RGCN.init(cfg, 5)
    val before = graphs.map(g => RGCN.lossAndGrad(g, p0)._1).sum
    val p = reference(Seq(graphs -> cfg), epochs = 60, seed = 5).head
    val after = graphs.map(g => RGCN.lossAndGrad(g, p)._1).sum
    assert(after < before * 0.8, s"$before -> $after")
  }

  test("Adam step actually moves every parameter with nonzero gradient") {
    val p0 = RGCN.init(cfg, 9).flat.clone()
    val p = trainOne(Seq(graph(1)), cfg, epochs = 1, seed = 9)
    val moved = p.flat.zip(p0).count { case (a, b) => a != b }
    assert(moved > p0.length / 2)
  }

  test("empty graph set is rejected") {
    intercept[IllegalArgumentException] {
      RGCNTrainer.train(Seq(Seq.empty[RGCN.EncodedGraph] -> cfg), epochs = 1, seed = 1)
    }
    intercept[IllegalArgumentException] {
      RGCNTrainer.train(Seq.empty, epochs = 1, seed = 1)
    }
  }

  test("a head with no graphs is rejected by index before any gradient is computed") {
    // head 0's graph does not fit its config, so computing its gradient
    // throws something else
    val unfit = graph(1).copy(feats = Array.fill(6)(Array(0.5)))
    val message = intercept[IllegalArgumentException] {
      RGCNTrainer.train(Seq(Seq(unfit) -> cfg, Seq.empty -> cfg,
        graphs(3, 3, 7) -> cfg.copy(outClasses = 3)), epochs = 2, seed = 1)
    }.getMessage
    assert(message.contains("head 1 "), message)
    intercept[IndexOutOfBoundsException](trainOne(Seq(unfit), cfg, epochs = 1, seed = 1))
  }

  test("train launches no Spark job") {
    assert(jobsOf(trainOne((1 to 8).map(graph), cfg, epochs = 2, seed = 3)) == 0)
  }

  test("train leaves no new non-daemon thread alive") {
    // a live non-daemon thread keeps the JVM of a job or bench from exiting
    def nonDaemon: Set[Thread] = {
      import scala.jdk.CollectionConverters._
      Thread.getAllStackTraces.keySet.asScala.filter(t => t.isAlive && !t.isDaemon).toSet
    }
    val before = nonDaemon
    trainOne((1 to 8).map(graph), cfg, epochs = 2, seed = 3)
    val added = nonDaemon -- before
    assert(added.isEmpty, added.map(_.getName).mkString(", "))
  }

  test("three heads trained together are bitwise equal to each head trained alone") {
    // head 1 has fewer graphs than chunks (empty chunks); head 2 has three
    // output classes
    val heads = Seq(graphs(11, 2, 1) -> cfg, graphs(2, 2, 20) -> cfg,
      graphs(7, 3, 30) -> cfg.copy(outClasses = 3))
    val together = RGCNTrainer.train(heads, epochs = 4, seed = 5)
    assert(together.size == heads.size)
    for (((gs, c), p) <- heads.zip(together))
      assert(bits(p) == bits(trainOne(gs, c, epochs = 4, seed = 5)),
        s"${c.outClasses} classes, ${gs.size} graphs")
  }
}
