package repro

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** The one parallel map for per-item work whose input already sits on the
  * driver; Spark runs only the relational steps (DESIGN.md §5).
  */
object Par {

  /** `xs.map(f)`, each item's `f` run as one task on the daemon threads of
    * `ExecutionContext.global`; results come back in input order. When calls
    * throw, `map` waits for every item and rethrows the first failing item's
    * own exception, fatal ones too (an uncaught one would hang the wait).
    */
  def map[A, B](xs: Seq[A])(f: A => B): Seq[B] = {
    implicit val ec: ExecutionContext = ExecutionContext.global
    val tasks = xs.map(x => Future(try Right(f(x)) catch { case t: Throwable => Left(t) }))
    Await.result(Future.sequence(tasks), Duration.Inf).map(_.toTry.get)
  }
}
