package repro

import org.scalatest.funsuite.AnyFunSuite

class ParSpec extends AnyFunSuite {

  test("map returns results in input order for 0, 1 and many items") {
    assert(Par.map(Seq.empty[Int])(_ + 1) == Seq.empty)
    assert(Par.map(Seq(7))(_ * 2) == Seq(14))
    // earlier items sleep longer, so they finish after later ones
    val xs = 0 until 64
    assert(Par.map(xs) { x => Thread.sleep((64 - x) / 8); x * x } == xs.map(x => x * x))
  }

  test("map rethrows the first failing item's own exception, in input order") {
    // item 3 fails last, after item 10 has failed
    val e = intercept[IndexOutOfBoundsException] {
      Par.map(0 until 20) { i =>
        if (i == 3) { Thread.sleep(100); throw new IndexOutOfBoundsException("item 3") }
        if (i == 10) throw new IllegalStateException("item 10")
        i
      }
    }
    assert(e.getMessage == "item 3")
    // an Error is not boxed in an ExecutionException
    assert(intercept[AssertionError](Par.map(Seq(1))(_ => throw new AssertionError("boom"))).getMessage == "boom")
  }

  test("map leaves no new non-daemon thread alive") {
    // a live non-daemon thread keeps the JVM of a job or bench from exiting
    def nonDaemon: Set[Thread] = {
      import scala.jdk.CollectionConverters._
      Thread.getAllStackTraces.keySet.asScala.filter(t => t.isAlive && !t.isDaemon).toSet
    }
    val before = nonDaemon
    Par.map(0 until 32)(x => x + 1)
    val added = nonDaemon -- before
    assert(added.isEmpty, added.map(_.getName).mkString(", "))
  }
}
