package repro.tsp

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class ATSPSpec extends AnyFunSuite {

  private def pathCost(d: Array[Array[Double]], interior: Seq[Int]): Double = {
    val full = 0 +: interior :+ (d.length - 1)
    full.sliding(2).map { case Seq(a, b) => d(a)(b) }.sum
  }

  test("empty instance") {
    assert(ATSP.solvePath(Array(Array(0.0, 1.0), Array(1.0, 0.0))) == Seq.empty)
  }

  test("single interior node") {
    val d = Array.fill(3, 3)(1.0)
    assert(ATSP.solvePath(d) == Seq(1))
  }

  test("recovers a known chain ordering") {
    // nodes: start, a, b, c, end laid out in a line; forward cost 1, backward 10
    val n = 5
    val d = Array.tabulate(n, n)((i, j) => if (j == i + 1) 1.0 else if (i == j) 0.0 else 10.0)
    assert(ATSP.solvePath(d) == Seq(1, 2, 3))
  }

  test("asymmetric costs are respected") {
    // going 2 before 1 is cheap, 1 before 2 expensive
    val d = Array(
      Array(0.0, 9.0, 1.0, 9.0),
      Array(9.0, 0.0, 9.0, 1.0),
      Array(9.0, 1.0, 0.0, 9.0),
      Array(9.0, 9.0, 9.0, 0.0))
    assert(ATSP.solvePath(d) == Seq(2, 1))
  }

  test("exact solver is optimal on random small instances") {
    val rng = new scala.util.Random(4)
    for (_ <- 0 until 20) {
      val k = 2 + rng.nextInt(5)
      val n = k + 2
      val d = Array.tabulate(n, n)((i, j) => if (i == j) 0.0 else 1 + rng.nextInt(20).toDouble)
      val got = ATSP.solvePath(d)
      assert(got.sorted == (1 to k))
      val best = (1 to k).permutations.map(p => pathCost(d, p.toSeq)).min
      assert(math.abs(pathCost(d, got) - best) < 1e-9)
    }
  }

  test("heuristic path visits every node exactly once (k > ExactLimit)") {
    val rng = new scala.util.Random(9)
    val k = ATSP.ExactLimit + 3
    val n = k + 2
    val d = Array.tabulate(n, n)((i, j) => if (i == j) 0.0 else 1 + rng.nextInt(50).toDouble)
    val got = ATSP.solvePath(d)
    assert(got.sorted == (1 to k))
  }

  test("heuristic is no worse than plain nearest neighbour on a chain") {
    val k = ATSP.ExactLimit + 2
    val n = k + 2
    val d = Array.tabulate(n, n)((i, j) => if (j == i + 1) 1.0 else if (i == j) 0.0 else 5.0)
    val got = ATSP.solvePath(d)
    assert(pathCost(d, got) <= 5.0 * 2 + (k - 1))
  }

  test("property: exact path cost equals the brute-force minimum for k <= 7") {
    // asymmetric costs in [0, 10) with some Unreachable arcs
    val cost = Gen.frequency(4 -> Gen.choose(0.0, 10.0), 1 -> Gen.const(ATSP.Unreachable))
    val instances = for {
      k <- Gen.choose(0, 7)
      rows <- Gen.listOfN((k + 2) * (k + 2), cost)
    } yield Array.tabulate(k + 2, k + 2)((i, j) => if (i == j) 0.0 else rows(i * (k + 2) + j))
    val r = Check.check(Check.Parameters.default.withMinSuccessfulTests(150)
      .withInitialSeed(Seed(20200614L)), Prop.forAllNoShrink(instances) { d =>
        val k = d.length - 2
        val got = ATSP.solvePath(d)
        val best = (1 to k).permutations.map(p => pathCost(d, p)).min
        got.sorted == (1 to k) && math.abs(pathCost(d, got) - best) <= 1e-9 * math.max(1.0, best)
      })
    assert(r.passed, org.scalacheck.util.Pretty.pretty(r))
  }

  test("property: the heuristic path (k in 14..20) costs no more than nearest neighbour from sos") {
    def nearestNeighbour(d: Array[Array[Double]]): Seq[Int] = {
      var left = (1 until d.length - 1).toVector
      var cur = 0
      Vector.fill(left.size) {
        cur = left.minBy(d(cur)); left = left.filterNot(_ == cur); cur
      }
    }
    val cost = Gen.frequency(4 -> Gen.choose(0.0, 10.0), 1 -> Gen.const(ATSP.Unreachable))
    val instances = for {
      k <- Gen.choose(ATSP.ExactLimit + 1, 20)
      rows <- Gen.listOfN((k + 2) * (k + 2), cost)
    } yield Array.tabulate(k + 2, k + 2)((i, j) => if (i == j) 0.0 else rows(i * (k + 2) + j))
    val r = Check.check(Check.Parameters.default.withMinSuccessfulTests(60)
      .withInitialSeed(Seed(20200614L)), Prop.forAllNoShrink(instances) { d =>
        val got = ATSP.solvePath(d)
        val nn = pathCost(d, nearestNeighbour(d))
        got.sorted == (1 to d.length - 2) && pathCost(d, got) <= nn + 1e-9 * math.max(1.0, nn)
      })
    assert(r.passed, org.scalacheck.util.Pretty.pretty(r))
  }
}
